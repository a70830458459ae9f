package obs

import (
	"path/filepath"
	"testing"
	"time"
)

// TestFlightRecorderWraparoundAudit audits the ring's ordering invariants
// across and beyond the wrap boundary: after any number of records, Dump
// is oldest-first with strictly consecutive sequence numbers ending at
// LastSeq, and Dropped accounts exactly for the overwritten prefix. This
// pins the two-slice wrap reassembly (buf[next:] + buf[:next]) at every
// phase — before the ring fills, at the exact fill point, and at
// arbitrary positions after multiple full laps.
func TestFlightRecorderWraparoundAudit(t *testing.T) {
	const cap = 5
	r := NewFlightRecorder(cap)
	for n := 1; n <= 4*cap+3; n++ {
		r.Record(Event{Kind: KindGrant, Subsystem: "audit", Device: n, Slot: -1})
		events := r.Dump()
		wantLen := n
		if wantLen > cap {
			wantLen = cap
		}
		if len(events) != wantLen {
			t.Fatalf("after %d records: len %d, want %d", n, len(events), wantLen)
		}
		if r.Dropped() != int64(n-wantLen) {
			t.Fatalf("after %d records: dropped %d, want %d", n, r.Dropped(), n-wantLen)
		}
		for i, e := range events {
			want := int64(n - wantLen + i + 1)
			if e.Seq != want {
				t.Fatalf("after %d records: dump[%d].Seq = %d, want %d (oldest-first, consecutive)", n, i, e.Seq, want)
			}
			if e.Device != int(e.Seq) {
				t.Fatalf("after %d records: seq %d carries payload %d — slot reuse corrupted an entry", n, e.Seq, e.Device)
			}
		}
		if last := events[len(events)-1].Seq; last != r.seq {
			t.Fatalf("after %d records: newest dumped seq %d != seq %d", n, last, r.seq)
		}
	}
}

// minimalSnapshot builds the smallest snapshot Validate accepts.
func minimalSnapshot() *Snapshot {
	return &Snapshot{
		Version:    SnapshotVersion,
		CapturedAt: time.Unix(1_700_000_000, 0),
		Sched:      SchedInfo{K: 2, Collusion: 1, Redundancy: 1},
		Model:      ModelInfo{Name: "m", InShape: []int{1, 2, 2}, Classes: 2, WeightHash: "fnv1a:0:0"},
		Cluster:    ClusterInfo{Size: 4},
		Fleet: FleetInfo{
			Config: FleetConfigInfo{Tenants: map[string]float64{"default": 1}},
			Devices: []DeviceInfo{
				{Index: 0, State: "healthy"}, {Index: 1, State: "healthy"},
				{Index: 2, State: "healthy"}, {Index: 3, State: "healthy"},
			},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := minimalSnapshot()
	snap.Batches = []BatchRecord{{
		Seq:      1,
		Tenant:   "default",
		RealRows: 1,
		Gang:     []int{0, 1, 2, 3},
		Images:   [][]float64{{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7, 0.8}},
		Classes:  []int{1, 0},
	}}
	snap.Events = []Event{
		{Seq: 1, Kind: KindGrant, Subsystem: "fleet", Device: -1, Slot: -1},
		{Seq: 2, Kind: KindQuarantine, Subsystem: "fleet", Device: 2, Slot: -1},
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := SaveSnapshot(snap, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != SnapshotVersion || len(got.Batches) != 1 || len(got.Events) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Batches[0].Images[1][3] != 0.8 {
		t.Fatal("image rows corrupted")
	}
	if got.Events[1].Kind != KindQuarantine || got.Events[1].Device != 2 {
		t.Fatalf("events corrupted: %+v", got.Events)
	}
}

func TestSnapshotValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Snapshot)
	}{
		{"wrong version", func(s *Snapshot) { s.Version = SnapshotVersion + 1 }},
		{"no K", func(s *Snapshot) { s.Sched.K = 0 }},
		{"bad device state", func(s *Snapshot) { s.Fleet.Devices[1].State = "wobbly" }},
		{"lease count mismatch", func(s *Snapshot) { s.Fleet.LeasedDevices = 3 }},
		{"lease/in-flight imbalance", func(s *Snapshot) {
			s.Fleet.Devices[0].Leased = true
			s.Fleet.LeasedDevices = 1
			// no tenant in-flight devices, no borrowed spares: inconsistent
		}},
		{"bad batch geometry", func(s *Snapshot) {
			s.Batches = []BatchRecord{{Seq: 1, Tenant: "default", RealRows: 1,
				Gang: []int{0, 1, 2, 3}, Images: [][]float64{{1}}}} // 1 row, K=2
		}},
		{"events out of order", func(s *Snapshot) {
			s.Events = []Event{{Seq: 5, Device: -1, Slot: -1}, {Seq: 4, Device: -1, Slot: -1}}
		}},
	}
	for _, tc := range cases {
		s := minimalSnapshot()
		tc.break_(s)
		if err := s.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a broken snapshot", tc.name)
		}
	}
	if err := minimalSnapshot().Validate(); err != nil {
		t.Fatalf("minimal snapshot rejected: %v", err)
	}
}
