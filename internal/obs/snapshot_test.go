package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
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

// readFixture returns the replay fixture testdata/snapshots/deep-per-layer.json.
func readFixture(tb testing.TB) []byte {
	tb.Helper()
	fixture, err := os.ReadFile(filepath.Join("..", "..", "testdata", "snapshots", "deep-per-layer.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return fixture
}

// trailingInputs are the fixture followed by something after its one JSON
// value: a corrupt tail, and a second capture appended.
func trailingInputs(fixture []byte) map[string][]byte {
	return map[string][]byte{
		"corrupt tail":   append(slices.Clip(fixture), "this is not json {{{"...),
		"second capture": append(slices.Clip(fixture), fixture...),
	}
}

// TestReadSnapshotRejectsTrailingData: a snapshot file holds one capture.
// Anything after it but white space is an error, not a silent load of the
// first value.
func TestReadSnapshotRejectsTrailingData(t *testing.T) {
	fixture := readFixture(t)
	if _, err := ReadSnapshot(bytes.NewReader(append(slices.Clip(fixture), " \n\t\n"...))); err != nil {
		t.Fatalf("fixture with trailing white space rejected: %v", err)
	}
	for name, data := range trailingInputs(fixture) {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: loaded with err = nil", name)
		}
	}
}

// FuzzReadSnapshot fuzzes the snapshot boundary, where replay reads files
// from outside the process: ReadSnapshot must never panic, and a snapshot
// it accepts must come back unchanged through WriteJSON and ReadSnapshot.
// Seeds: the replay fixture, the fixture with data after it, and a
// snapshot captured here, with a real flight-recorder window.
func FuzzReadSnapshot(f *testing.F) {
	fixture := readFixture(f)
	f.Add(fixture)
	for _, data := range trailingInputs(fixture) {
		f.Add(data)
	}
	snap := minimalSnapshot()
	snap.CapturedAt = time.Now()
	snap.Batches = []BatchRecord{{Seq: 1, Tenant: "default", RealRows: 1, Gang: []int{0, 1, 2, 3},
		Images: [][]float64{{0.1, -0.2}, {0, 1e-300}}, Classes: []int{1, 0}, Culprits: []int{2}, Err: "tampered"}}
	rec := NewFlightRecorder(4)
	rec.Record(Event{Kind: KindGrant, Subsystem: "fleet", Device: -1, Slot: -1, Tenant: "default"})
	rec.Record(Event{Kind: KindQuarantine, Subsystem: "fleet", Device: 2, Slot: 2, Detail: "fault score 1.2"})
	snap.Events, snap.EventsDropped = rec.Dump(), rec.Dropped()
	var captured bytes.Buffer
	if err := snap.WriteJSON(&captured); err != nil {
		f.Fatal(err)
	}
	f.Add(captured.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := s.WriteJSON(&once); err != nil {
			t.Fatalf("accepted snapshot does not serialize: %v", err)
		}
		back, err := ReadSnapshot(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("accepted snapshot rejected after a round trip: %v", err)
		}
		if err := back.WriteJSON(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("snapshot changed in a round trip:\n%s\nvs\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
