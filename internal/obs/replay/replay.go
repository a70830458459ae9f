// Package replay reconstructs a synthetic DarKnight cluster from a state
// snapshot and re-runs the captured batch window deterministically — the
// second half of snapshot-to-replay incident debugging.
//
// Determinism argument. Decoding over F_p is exact, so a batch's decoded
// classes are a pure function of the model weights and the K input rows
// (dummy pads included); the masking noise is decoded out exactly, which
// makes the TEE's noise RNG irrelevant to outputs. Per-device fault
// schedules (gpu.FaultPolicy counters and seeded private RNGs) reproduce
// because the batch log is appended before each grant's release: a device
// freed by grant A cannot serve batch B until A is already logged, so
// each device's log-order job sequence equals its live dispatch order,
// and replaying the log serially drives every fault counter through the
// same states.
//
// Fidelity limits (deliberate): speculation is timer-driven and additive
// — it never changes decoded outputs — so replay runs without it, and
// speculate events are excluded from comparison. Probation re-admission
// is disabled (fleet.ConfigFromSnapshot) because replay gangs are
// scripted from the batch log; live readmit/probation events are likewise
// excluded. Straggler wrappers are reconstructed so quorum membership
// matches the live run; classes are quorum-independent (MDS decode is
// exact from any quorum), but culprit attribution can only see a
// corruption whose response made the quorum — the chaos scenarios this
// harness gates keep tampering devices fast and stragglers covered by
// slack, where membership is stable.
package replay

import (
	"errors"
	"fmt"
	"time"

	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/sched"
)

// Options tunes a replay run.
type Options struct {
	// RecorderSize sizes the replay-side flight recorder
	// (obs.DefaultRecorderSize when 0). Size it to hold the whole window:
	// a wrapped replay recorder voids the event comparison.
	RecorderSize int
	// Logf, when set, receives progress lines (e.g. testing.T.Logf).
	Logf func(format string, args ...any)
}

// Report is the outcome of one replay run.
type Report struct {
	// Batches is the number of batch records replayed; Matched counts
	// those whose outcome (classes, culprits, error presence) reproduced
	// bit-identically.
	Batches int
	Matched int
	// Mismatches holds one human-readable line per divergence (batch
	// outcomes and event projections alike). Empty means the incident
	// replayed deterministically.
	Mismatches []string

	// EventsCompared reports whether the event projections were checked:
	// it requires a complete window (no batches or events dropped by the
	// live rings) and a replay recorder that did not wrap.
	EventsCompared bool
	// QuarantineLive/QuarantineReplay are the per-run quarantine
	// projections: device indices in first-quarantine order.
	QuarantineLive   []int
	QuarantineReplay []int
	// IntegrityLive/IntegrityReplay are the window's integrity-verdict
	// event counts.
	IntegrityLive   int
	IntegrityReplay int
}

// OK reports whether the replay reproduced the captured incident.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

// Summary renders the report as one line.
func (r *Report) Summary() string {
	if r.OK() {
		ev := "events not compared (incomplete window)"
		if r.EventsCompared {
			ev = fmt.Sprintf("quarantines %v, %d integrity events", r.QuarantineReplay, r.IntegrityReplay)
		}
		return fmt.Sprintf("replay OK: %d/%d batches bit-identical; %s", r.Matched, r.Batches, ev)
	}
	return fmt.Sprintf("replay DIVERGED: %d/%d batches matched, %d mismatches (first: %s)",
		r.Matched, r.Batches, len(r.Mismatches), r.Mismatches[0])
}

// Run rebuilds the captured cluster, fleet, and inference engine from a
// snapshot and replays its batch log, comparing outcomes and event
// projections against the capture. The model must be the architecture the
// snapshot was taken from; its weights are overwritten from the snapshot
// when embedded, otherwise verified by hash.
func Run(snap *obs.Snapshot, model *nn.Model, opts Options) (*Report, error) {
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("replay: invalid snapshot: %w", err)
	}
	if model == nil {
		return nil, errors.New("replay: nil model")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := restoreWeights(snap, model); err != nil {
		return nil, err
	}

	cluster, _, err := BuildCluster(snap.Cluster, false)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	rec := obs.NewFlightRecorder(opts.RecorderSize)
	fm := fleet.NewManager(cluster, fleet.ConfigFromSnapshot(snap.Fleet.Config))
	fm.SetObserver(rec)

	sc := sched.Config{
		VirtualBatch:   snap.Sched.K,
		Collusion:      snap.Sched.Collusion,
		Redundancy:     snap.Sched.Redundancy,
		StragglerSlack: snap.Sched.StragglerSlack,
		Seed:           snap.Sched.Seed,
	}
	// One lane: the log is replayed serially, whatever depth recorded it.
	pipe, err := sched.NewPipeline(sc, model, nil, "", 1)
	if err != nil {
		return nil, fmt.Errorf("replay: rebuilding the pipeline: %w", err)
	}
	defer pipe.Close()
	if snap.Serving.Recover {
		if err := pipe.EnableRecovery(); err != nil {
			return nil, fmt.Errorf("replay: enabling recovery: %w", err)
		}
	}
	pipe.SetObserver(rec)

	rep := &Report{Batches: len(snap.Batches)}
	logf("replay: %d batches over %d devices (gang %d)", len(snap.Batches), cluster.Size(), pipe.Gang())
	for _, b := range snap.Batches {
		if err := replayBatch(fm, pipe, b, rep); err != nil {
			return nil, err
		}
	}

	compareEvents(snap, rec, rep)
	logf("replay: %s", rep.Summary())
	return rep, nil
}

// restoreWeights loads the snapshot's embedded weights into the model (or,
// when only a hash was captured, verifies the model already matches).
func restoreWeights(snap *obs.Snapshot, model *nn.Model) error {
	params := model.Params()
	if len(snap.Model.Weights) > 0 {
		want := 0
		for _, p := range params {
			want += len(p.W.Data)
		}
		if want != len(snap.Model.Weights) {
			return fmt.Errorf("replay: snapshot embeds %d weights, model %q has %d",
				len(snap.Model.Weights), snap.Model.Arch, want)
		}
		off := 0
		for _, p := range params {
			off += copy(p.W.Data, snap.Model.Weights[off:off+len(p.W.Data)])
		}
	}
	if snap.Model.WeightHash == "" {
		return nil
	}
	var flat []float64
	for _, p := range params {
		flat = append(flat, p.W.Data...)
	}
	if got := obs.HashWeights(flat); got != snap.Model.WeightHash {
		return fmt.Errorf("replay: model weight hash %s does not match snapshot %s — wrong arch or seed (snapshot: arch %q seed %d)",
			got, snap.Model.WeightHash, snap.Model.Arch, snap.Model.Seed)
	}
	return nil
}

// BuildCluster assembles the device composition ci records: honest
// devices, the recorded fault policies and the recorded straggler delays,
// all at their original indices. It is the one cluster builder: a live
// deployment builds from the ClusterInfo its snapshots then carry, and
// replay rebuilds from the captured one. With chaos every honest device is
// first wrapped (innermost) in a runtime fault-injection actuator, so a
// slow wrapper stays outermost and charges its launch delay once per trip;
// the returned slice holds the handles a chaos runner drives, index =
// device id (nil without chaos).
func BuildCluster(ci obs.ClusterInfo, chaos bool) (*gpu.Cluster, []*gpu.ChaosDevice, error) {
	devs := make([]gpu.Device, ci.Size)
	var actuators []*gpu.ChaosDevice
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
		if chaos {
			actuators = append(actuators, gpu.NewChaos(devs[i]))
			devs[i] = actuators[i]
		}
	}
	for _, md := range ci.Malicious {
		if md.Index < 0 || md.Index >= len(devs) {
			return nil, nil, fmt.Errorf("malicious device index %d outside cluster of %d", md.Index, len(devs))
		}
		devs[md.Index] = gpu.NewMalicious(devs[md.Index], gpu.FaultPolicy{
			EveryNth:    md.EveryNth,
			Offset:      md.Offset,
			Probability: md.Probability,
			Seed:        md.Seed,
		})
	}
	for _, sd := range ci.Slow {
		if sd.Index < 0 || sd.Index >= len(devs) {
			return nil, nil, fmt.Errorf("slow device index %d outside cluster of %d", sd.Index, len(devs))
		}
		devs[sd.Index] = gpu.NewSlow(devs[sd.Index], time.Duration(sd.DelayNs))
	}
	return gpu.NewCluster(devs...), actuators, nil
}

// replayBatch re-runs one captured batch on its recorded gang slots and
// folds the outcome comparison into the report. The verdict is reported
// exactly as the serving workers report it, so the health tracker sees
// what the live fleet's did.
func replayBatch(fm *fleet.Manager, pipe *sched.Pipeline, b obs.BatchRecord, rep *Report) error {
	grant, err := fm.AcquireSlots(b.Tenant, b.Gang)
	if err != nil {
		return fmt.Errorf("replay: batch #%d: %w", b.Seq, err)
	}
	var preds, culprits []int
	tk, perr := pipe.Submit(grant, b.Images)
	if perr == nil {
		perr = tk.Wait()
		preds, culprits = tk.Classes(), tk.Culprits()
	}
	sched.ReportOutcome(grant, culprits, perr)
	grant.Release()

	mismatch := func(format string, args ...any) {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("batch #%d (%s): %s", b.Seq, b.Tenant, fmt.Sprintf(format, args...)))
	}
	ok := true
	if (perr != nil) != (b.Err != "") {
		ok = false
		mismatch("live error %q, replay error %v", b.Err, perr)
	}
	if perr == nil && b.Err == "" && !equalInts(preds, b.Classes) {
		ok = false
		mismatch("classes diverged: live %v, replay %v", b.Classes, preds)
	}
	if !equalInts(culprits, b.Culprits) {
		ok = false
		mismatch("culprits diverged: live %v, replay %v", b.Culprits, culprits)
	}
	if ok {
		rep.Matched++
	}
	return nil
}

// compareEvents checks the replay's event projections against the
// captured window: the quarantine sequence (device indices in
// first-quarantine order — live readmissions can re-quarantine a device,
// so only the first transition is deterministic under scripted gangs),
// and the integrity-verdict counts. Requires a complete capture (nothing
// dropped by the live rings) and an unwrapped replay recorder; otherwise
// the comparison is skipped and EventsCompared stays false.
func compareEvents(snap *obs.Snapshot, rec *obs.FlightRecorder, rep *Report) {
	replayEvents := rec.Dump()
	rep.QuarantineLive = quarantineProjection(snap.Events)
	rep.QuarantineReplay = quarantineProjection(replayEvents)
	rep.IntegrityLive = countKind(snap.Events, obs.KindIntegrity)
	rep.IntegrityReplay = countKind(replayEvents, obs.KindIntegrity)
	if snap.EventsDropped != 0 || snap.BatchesDropped != 0 || rec.Dropped() != 0 {
		return
	}
	rep.EventsCompared = true
	if !equalInts(rep.QuarantineReplay, rep.QuarantineLive) {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"quarantine sequence diverged: live %v, replay %v", rep.QuarantineLive, rep.QuarantineReplay))
	}
	if rep.IntegrityReplay != rep.IntegrityLive {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
			"integrity event count diverged: live %d, replay %d", rep.IntegrityLive, rep.IntegrityReplay))
	}
}

// quarantineProjection extracts device indices in first-quarantine order.
func quarantineProjection(events []obs.Event) []int {
	seen := make(map[int]bool)
	var out []int
	for _, e := range events {
		if e.Kind == obs.KindQuarantine && e.Device >= 0 && !seen[e.Device] {
			seen[e.Device] = true
			out = append(out, e.Device)
		}
	}
	return out
}

func countKind(events []obs.Event, kind string) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TB is the subset of testing.TB the test helper needs — a local
// interface so importing this package does not drag in testing.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
}

// ReplaySnapshot loads a snapshot file and replays it against the given
// model, failing the test on any divergence. It returns the report so
// tests can make further assertions.
func ReplaySnapshot(t TB, path string, model *nn.Model) *Report {
	t.Helper()
	snap, err := obs.LoadSnapshot(path)
	if err != nil {
		t.Fatalf("replay: loading snapshot %s: %v", path, err)
	}
	rep, err := Run(snap, model, Options{Logf: t.Logf, RecorderSize: len(snap.Events) + 16*len(snap.Batches) + 64})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("replay: %s\nall mismatches:\n  %s", rep.Summary(), joinLines(rep.Mismatches))
	}
	return rep
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
