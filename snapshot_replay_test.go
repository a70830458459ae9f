package darknight

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"darknight/internal/gpu"
)

// chaosServerConfig is the chaos incident the snapshot-to-replay
// acceptance gates: a tampering device corrupting every third job
// (audit-and-recover quarantines it mid-serving) plus 2ms stragglers
// covered by quorum slack.
//
// Three of the eight devices straggle so that every gang of six holds at
// least one: the quorum (slack 1) then always leaves a straggler behind
// and always contains the fast tamperer's response. With a single
// straggler, a gang that missed it left behind whichever response happened
// to land last — sometimes the tampered one — and since the batch log does
// not record the quorum mask, live and replay then disagreed on culprits.
func chaosServerConfig() ServerConfig {
	return ServerConfig{
		Config: Config{
			VirtualBatch: 2,
			Collusion:    1,
			// Straggler-quorum decode spends one redundant equation on the
			// slack; attribution of a single culprit needs two live checks,
			// so the chaos geometry carries E=3.
			Redundancy:    3,
			Seed:          7,
			EnclaveBytes:  -1,
			MaliciousGPUs: []int{2},
			FaultPolicy:   gpu.FaultPolicy{EveryNth: 3},
			SlowGPUs:      []int{4, 5, 6},
			SlowDelay:     2 * time.Millisecond,
		},
		Arch:           "tiny",
		Workers:        1,
		MaxWait:        time.Millisecond,
		SpareGPUs:      2,
		Recover:        true,
		StragglerSlack: 1,
		Tenants:        []Tenant{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}},
		Observability: ObservabilityConfig{
			Enabled:            true,
			FlightRecorderSize: 4096,
		},
	}
}

// driveChaos pushes n requests per tenant through the server.
func driveChaos(t *testing.T, srv *Server, n int) {
	t.Helper()
	data := SyntheticDataset(16, 4, 1, 8, 8, 99)
	var wg sync.WaitGroup
	for _, tenant := range []string{"gold", "bronze"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Recovery absorbs the tampering, so errors are unexpected.
				if _, err := srv.InferAs(context.Background(), tenant, data[i%len(data)].Image); err != nil {
					t.Errorf("tenant %s request %d: %v", tenant, i, err)
					return
				}
			}
		}(tenant)
	}
	wg.Wait()
}

// TestSnapshotReplayChaosDeterminism is the PR 8 acceptance test: a chaos
// incident — mid-flight quarantine of a tampering device plus
// straggler-quorum decode — captured live must replay deterministically:
// bit-identical decoded classes, identical culprit attributions, and the
// same quarantine event sequence. The replay model is rebuilt from the
// snapshot's recorded arch + seed alone and verified by weight hash.
func TestSnapshotReplayChaosDeterminism(t *testing.T) {
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 7) }, chaosServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	driveChaos(t, srv, 12)

	snap, err := srv.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := snap.Validate(); err != nil {
		t.Fatalf("live snapshot inconsistent: %v", err)
	}
	if len(snap.Batches) == 0 {
		t.Fatal("batch log empty — nothing to replay")
	}
	if snap.Fleet.QuarantineEvents == 0 {
		t.Fatal("chaos did not quarantine the tampering device — incident too tame to gate replay")
	}
	if snap.Model.Arch != "tiny" || snap.Model.WeightHash == "" {
		t.Fatalf("model identity not captured: %+v", snap.Model)
	}
	if len(snap.Cluster.Malicious) != 1 || snap.Cluster.Malicious[0].EveryNth != 3 {
		t.Fatalf("fault policy not captured: %+v", snap.Cluster)
	}
	if len(snap.Cluster.Slow) != 3 || snap.Cluster.Slow[0].DelayNs != int64(2*time.Millisecond) {
		t.Fatalf("straggler delay not captured: %+v", snap.Cluster)
	}

	path := filepath.Join(t.TempDir(), "incident.json")
	if err := SaveSnapshot(snap, path); err != nil {
		t.Fatal(err)
	}

	// nil model: replay rebuilds tiny/seed 7 from the registry, then the
	// weight hash proves it reconstructed the served weights exactly.
	rep := ReplaySnapshot(t, path, nil)
	if rep.Matched != rep.Batches {
		t.Fatalf("only %d/%d batches matched", rep.Matched, rep.Batches)
	}
	if !rep.EventsCompared {
		t.Fatal("event window incomplete — the determinism gate did not actually compare event sequences")
	}
	if len(rep.QuarantineReplay) == 0 {
		t.Fatal("replay produced no quarantines — fault schedule did not reproduce")
	}
}

// TestSnapshotRecordsDefaultedComposition: a server that leaves the fault
// policy and the straggler delay at their zero values runs its tamperer at
// corrupt-every-result and its straggler at 5 ms, its snapshot records
// exactly those values, and replay rebuilt from that record matches every
// batch — the defaults are applied once, before the cluster is built.
func TestSnapshotRecordsDefaultedComposition(t *testing.T) {
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 7) }, ServerConfig{
		Config: Config{
			VirtualBatch:  2,
			Redundancy:    2,
			Seed:          7,
			EnclaveBytes:  -1,
			MaliciousGPUs: []int{0},
			SlowGPUs:      []int{3},
		},
		Arch:          "tiny",
		Workers:       1,
		MaxWait:       time.Millisecond,
		SpareGPUs:     1,
		Recover:       true,
		Observability: ObservabilityConfig{Enabled: true, FlightRecorderSize: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := SyntheticDataset(8, 4, 1, 8, 8, 99)
	for i, ex := range data {
		if _, err := srv.Infer(context.Background(), ex.Image); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	snap, err := srv.CaptureSnapshot()
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m := snap.Cluster.Malicious; len(m) != 1 || m[0].Index != 0 || m[0].EveryNth != 1 {
		t.Fatalf("defaulted fault policy not recorded: %+v", snap.Cluster)
	}
	if sl := snap.Cluster.Slow; len(sl) != 1 || sl[0].Index != 3 || sl[0].DelayNs != int64(5*time.Millisecond) {
		t.Fatalf("defaulted straggler delay not recorded: %+v", snap.Cluster)
	}
	if snap.Fleet.QuarantineEvents == 0 {
		t.Fatal("the corrupt-every-result tamperer was never quarantined")
	}
	path := filepath.Join(t.TempDir(), "defaults.json")
	if err := SaveSnapshot(snap, path); err != nil {
		t.Fatal(err)
	}
	if rep := ReplaySnapshot(t, path, nil); rep.Batches == 0 || rep.Matched != rep.Batches {
		t.Fatalf("replay matched %d/%d batches", rep.Matched, rep.Batches)
	}
}

// TestPerLayerSnapshotReplaysOnBatchFlight:
// testdata/snapshots/deep-per-layer.json was captured from a server that
// flew DeepMLP one layer per flight, in the snapshot format that still
// recorded the fused-offload switch
// ("fuse_blocks": false): one worker, K=2, E=2 with audit-and-recover, and
// device 1 tampering with every fifth job until it is quarantined. The
// field is gone, and every runtime now flies each virtual batch as one
// flight. The snapshot must still load and validate, and
// everything replay compares — classes, culprits, the quarantine sequence,
// integrity-verdict counts — must come out unchanged.
func TestPerLayerSnapshotReplaysOnBatchFlight(t *testing.T) {
	path := filepath.Join("testdata", "snapshots", "deep-per-layer.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"fuse_blocks": false`) {
		t.Fatal("fixture no longer carries the retired fuse_blocks field")
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("per-layer snapshot does not load: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("per-layer snapshot does not validate: %v", err)
	}
	if snap.Model.Arch != "deep" || len(snap.Batches) == 0 {
		t.Fatalf("fixture is not a deep-model capture with batches: arch %q, %d batches", snap.Model.Arch, len(snap.Batches))
	}
	rep := ReplaySnapshot(t, path, nil)
	if rep.Matched != rep.Batches {
		t.Fatalf("only %d/%d batches matched", rep.Matched, rep.Batches)
	}
	if !rep.EventsCompared {
		t.Fatal("event window incomplete — the replay compared no event sequences")
	}
	if len(rep.QuarantineReplay) == 0 || rep.IntegrityReplay == 0 {
		t.Fatalf("replay reproduced no tampering: quarantines %v, %d integrity events", rep.QuarantineReplay, rep.IntegrityReplay)
	}
}

// SaveSnapshot is exercised via the facade; LoadSnapshot mismatch paths
// are covered here: replaying against the wrong model must fail the hash
// check rather than diverge silently.
func TestReplayRejectsWrongModel(t *testing.T) {
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 7) }, chaosServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	driveChaos(t, srv, 4)
	snap, err := srv.CaptureSnapshot()
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	wrong := TinyCNN(1, 8, 8, 4, 8) // different seed, different weights
	if _, err := Replay(snap, wrong, ReplayOptions{}); err == nil {
		t.Fatal("replay accepted a model with mismatched weights")
	}
}

// TestSnapshotEndpoint: the /snapshot HTTP surface serves a validating,
// replayable capture from a live server.
func TestSnapshotEndpoint(t *testing.T) {
	cfg := chaosServerConfig()
	cfg.Observability.MetricsAddr = "127.0.0.1:0"
	cfg.Observability.SnapshotWeights = true
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 7) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	driveChaos(t, srv, 4)

	resp, err := http.Get("http://" + srv.MetricsAddr() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/snapshot Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("/snapshot body does not validate: %v", err)
	}
	if len(snap.Model.Weights) == 0 {
		t.Fatal("SnapshotWeights did not embed weights")
	}
	// Self-contained capture: replay straight from the endpoint payload,
	// weights restored from the snapshot itself.
	rep := ReplaySnapshot(t, path, TinyCNN(1, 8, 8, 4, 12345)) // wrong seed on purpose
	if rep.Matched != rep.Batches {
		t.Fatalf("embedded-weight replay matched %d/%d", rep.Matched, rep.Batches)
	}
}

// TestConcurrentSnapshotCapture hammers the three read surfaces —
// CaptureSnapshot, Metrics and the /metrics exposition — from a background
// goroutine while serving traffic is quarantining a tamperer mid-flight —
// run under -race in CI: every one is a read of instruments the request
// path is writing. Every capture must be internally consistent: grant
// counts match lane occupancy, fault scores in bounds, event window ordered
// (all enforced by Validate).
func TestConcurrentSnapshotCapture(t *testing.T) {
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 7) }, chaosServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	captures := 0
	var capErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := srv.CaptureSnapshot()
			if err == nil {
				err = snap.Validate()
			}
			if err == nil {
				err = srv.WriteMetrics(io.Discard)
			}
			if m := srv.Metrics(); err == nil && m.Completed+m.Failed > m.RealRows {
				err = fmt.Errorf("metrics answered %d+%d requests on %d dispatched rows", m.Completed, m.Failed, m.RealRows)
			}
			if err != nil {
				capErr = err
				return
			}
			captures++
		}
	}()

	driveChaos(t, srv, 16)
	close(stop)
	wg.Wait()
	if capErr != nil {
		t.Fatalf("mid-serving capture inconsistent: %v", capErr)
	}
	if captures == 0 {
		t.Fatal("no snapshots captured during serving")
	}
	if srv.FleetStats().QuarantineEvents == 0 {
		t.Fatal("no mid-flight quarantine happened — the race test lost its chaos")
	}
}
