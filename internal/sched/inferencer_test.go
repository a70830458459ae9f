package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"darknight/internal/dataset"
	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/spec/stack"
)

// TestInferencerMatchesTrainerPredict: a one-lane Inferencer predicts the
// classes of internal/spec/stack's logits.
func TestInferencerMatchesTrainerPredict(t *testing.T) {
	cfg := Config{VirtualBatch: 2, Seed: 5}
	model := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
	data := tinyData()
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}

	logits := stack.New(model, cfg.VirtualBatch).Forward(images)
	want := make([]int, len(logits))
	for i := range logits {
		want[i] = nn.Argmax(logits[i])
	}

	inf, err := NewInferencer(cfg, model, nil, "inf/")
	if err != nil {
		t.Fatal(err)
	}
	defer inf.Close()
	got, err := inf.Predict(gpu.NewHonestCluster(3), images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("image %d: inferencer %d, reference %d", i, got[i], want[i])
		}
	}
}

// The fleet is a per-call binding: the same Inferencer must serve
// correctly across disjoint device gangs, as a serving worker does across
// successive leases.
func TestInferencerAcrossFleets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 4, 4, 1, 8, 8, 0.05)
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}

	inf, err := NewInferencer(Config{VirtualBatch: 2, Seed: 5}, model, nil, "inf/")
	if err != nil {
		t.Fatal(err)
	}
	a, err := inf.Predict(gpu.NewHonestCluster(3), images)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inf.Predict(gpu.NewHonestCluster(3), images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("image %d: %d on fleet A, %d on fleet B", i, a[i], b[i])
		}
	}
}

// keptProbe is a device that, on every forward job, reads how many coded
// inputs the newest flight of log keeps — mid-batch, before End recycles
// anything — and records the most it saw.
type keptProbe struct {
	gpu.Device
	log  *flightLog
	peak atomic.Int64
}

func (d *keptProbe) LinearForward(kernel gpu.LinearKernel, x field.Vec) field.Vec {
	d.log.mu.Lock()
	if n := len(d.log.flights); n > 0 {
		if k := int64(d.log.flights[n-1].Kept()); k > d.peak.Load() {
			d.peak.Store(k)
		}
	}
	d.log.mu.Unlock()
	return d.Device.LinearForward(kernel, x)
}

// Inference never reads a coded input back, so its flights keep nothing:
// a serving loop may run indefinitely and device memory has to stay
// bounded. No flight of six successive dispatches on one cluster keeps a
// coded input while its batch runs or after it ended, and each dispatch
// opens as many flights as the first.
func TestInferencerDeviceStorageBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 4, 4, 1, 8, 8, 0.05)
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}

	inf, err := NewInferencer(Config{VirtualBatch: 2, Seed: 5}, model, nil, "w0/")
	if err != nil {
		t.Fatal(err)
	}
	defer inf.Close()
	log := &flightLog{}
	devs := honestDevices(3)
	probe := &keptProbe{Device: devs[2], log: log}
	devs[2] = probe
	gang := loggedGang{Fleet: gpu.NewCluster(devs...), log: log}
	per := 0
	for i := 0; i < 6; i++ {
		if _, err := inf.Predict(gang, images); err != nil {
			t.Fatal(err)
		}
		if k := probe.peak.Load(); k != 0 {
			t.Fatalf("dispatch %d: an inference flight kept %d coded inputs mid-batch", i, k)
		}
		requireRecycled(t, fmt.Sprintf("dispatch %d", i), log, false)
		log.mu.Lock()
		opened := len(log.flights)
		log.mu.Unlock()
		if i == 0 {
			per = opened
		}
		if opened != (i+1)*per {
			t.Fatalf("%d dispatches opened %d flights, want %d each", i+1, opened, per)
		}
	}
}

// gatedDevice is a straggler under the test's control: every forward job
// blocks until the gate closes. A gather that returns while the gate is still open
// has provably decoded around it.
type gatedDevice struct {
	gpu.Device
	gate <-chan struct{}
}

func (d gatedDevice) LinearForward(kernel gpu.LinearKernel, x field.Vec) field.Vec {
	<-d.gate
	return d.Device.LinearForward(kernel, x)
}

// lastGated returns a cluster of devs whose last device stays blocked until
// the test ends — the column every quorum gather must do without.
func lastGated(t *testing.T, devs ...gpu.Device) *gpu.Cluster {
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	devs[len(devs)-1] = gatedDevice{Device: devs[len(devs)-1], gate: gate}
	return gpu.NewCluster(devs...)
}

func honestDevices(n int) []gpu.Device {
	devs := make([]gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
	}
	return devs
}

func TestInferencerStragglerSubsetDecodeMatchesFull(t *testing.T) {
	// With StragglerSlack and E=2, predictions decoded from a permanently
	// missing response must equal the full-fleet decode exactly.
	rng := rand.New(rand.NewSource(42))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 4, 4, 1, 8, 8, 0.05)
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}

	full, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 2, Seed: 5}, model, nil, "a/")
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Predict(gpu.NewHonestCluster(5), images)
	if err != nil {
		t.Fatal(err)
	}

	modelB := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
	inf, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 2, StragglerSlack: 1, Seed: 5}, modelB, nil, "a/")
	if err != nil {
		t.Fatal(err)
	}
	// Predict can only return by decoding around the blocked last device.
	got, err := inf.Predict(lastGated(t, honestDevices(5)...), images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("image %d: straggler path %d, full path %d", i, got[i], want[i])
		}
	}
}

func TestInferencerSlackClampedWithoutRedundancyBudget(t *testing.T) {
	// StragglerSlack with E <= 1 must clamp to zero: the one redundant
	// equation is reserved for verification, so every gather waits for
	// every device.
	rng := rand.New(rand.NewSource(42))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 4, 4, 1, 8, 8, 0.05)
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}

	inf, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 1, StragglerSlack: 3, Seed: 5}, model, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := inf.all[0].effectiveSlack(); got != 0 {
		t.Fatalf("effective slack %d with E=1; want clamp to 0", got)
	}
	if _, err := inf.Predict(gpu.NewHonestCluster(4), images); err != nil {
		t.Fatal(err)
	}
}

func TestInferencerRecoveryAttributesCulprit(t *testing.T) {
	// E=2 + recovery: a persistently tampering device is identified per
	// batch (on its ticket) while predictions stay correct.
	rng := rand.New(rand.NewSource(42))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 4, 4, 1, 8, 8, 0.05)
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}

	ref, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 2, Seed: 5}, model, nil, "r/")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Predict(gpu.NewHonestCluster(5), images)
	if err != nil {
		t.Fatal(err)
	}

	modelB := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
	inf, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 2, Seed: 5}, modelB, nil, "r/")
	if err != nil {
		t.Fatal(err)
	}
	if err := inf.EnableRecovery(); err != nil {
		t.Fatal(err)
	}
	verdicts := integrityVerdicts(inf)
	const bad = 3
	devs := make([]gpu.Device, 5)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
		if i == bad {
			devs[i] = gpu.NewMalicious(devs[i], gpu.FaultPolicy{EveryNth: 1})
		}
	}
	tk, err := inf.Submit(gpu.NewCluster(devs...), images)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("recovery should mask the fault: %v", err)
	}
	got := tk.Classes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("image %d: recovered %d, clean %d", i, got[i], want[i])
		}
	}
	culprits := tk.Culprits()
	if len(culprits) != 1 || culprits[0] != bad {
		t.Fatalf("culprits = %v, want [%d]", culprits, bad)
	}
	checkRecovered(t, verdicts(), bad)

	// EnableRecovery without the redundancy budget must refuse.
	weak, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 1, Seed: 5}, modelB, nil, "w/")
	if err != nil {
		t.Fatal(err)
	}
	if err := weak.EnableRecovery(); err == nil {
		t.Fatal("recovery accepted with E=1")
	}
}

func TestInferencerRecoveryComposesWithStragglerSlack(t *testing.T) {
	// E=3, slack=1: the dispatch proceeds without the slowest response AND
	// one present device tampers. Two present redundant equations remain,
	// so recovery must attribute the culprit and decode from the clean
	// present subset — the two fault-tolerance mechanisms compose.
	rng := rand.New(rand.NewSource(42))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 4, 4, 1, 8, 8, 0.05)
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}

	ref, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 3, Seed: 5}, model, nil, "r/")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Predict(gpu.NewHonestCluster(6), images)
	if err != nil {
		t.Fatal(err)
	}

	modelB := nn.TinyCNN(1, 8, 8, 4, rand.New(rand.NewSource(42)))
	inf, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 3, StragglerSlack: 1, Seed: 5}, modelB, nil, "r/")
	if err != nil {
		t.Fatal(err)
	}
	if err := inf.EnableRecovery(); err != nil {
		t.Fatal(err)
	}
	const bad = 1
	devs := make([]gpu.Device, 6)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
		if i == bad {
			devs[i] = gpu.NewMalicious(devs[i], gpu.FaultPolicy{EveryNth: 1})
		}
	}
	tk, err := inf.Submit(lastGated(t, devs...), images)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("recovery on the quorum path should absorb the fault: %v", err)
	}
	got := tk.Classes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("image %d: recovered-quorum %d, clean %d", i, got[i], want[i])
		}
	}
	culprits := tk.Culprits()
	if len(culprits) != 1 || culprits[0] != bad {
		t.Fatalf("culprits = %v, want [%d]", culprits, bad)
	}
}

func TestInferencerQuorumAttributesWithoutRecovery(t *testing.T) {
	// Same setup without recovery: the subset-path error must carry the
	// attributed culprit so the fleet can still quarantine it.
	rng := rand.New(rand.NewSource(42))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 4, 4, 1, 8, 8, 0.05)
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}

	inf, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 3, StragglerSlack: 1, Seed: 5}, model, nil, "q/")
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	devs := make([]gpu.Device, 6)
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
		if i == bad {
			devs[i] = gpu.NewMalicious(devs[i], gpu.FaultPolicy{EveryNth: 1})
		}
	}
	_, err = inf.Predict(lastGated(t, devs...), images)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError", err)
	}
	if len(ie.Culprits) != 1 || ie.Culprits[0] != bad {
		t.Fatalf("culprits = %v, want [%d]", ie.Culprits, bad)
	}
}

func TestRecoveryRecordsUnattributedVerdict(t *testing.T) {
	// E=2, slack 1, recovery on: a straggler leaves one present check, so a
	// tampered response is detected but cannot be named. The batch must
	// still fail with a verdict — an *IntegrityError without culprits,
	// recorded once as unattributed — not a bare error.
	rng := rand.New(rand.NewSource(42))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 4, 4, 1, 8, 8, 0.05)
	images := [][]float64{data.Items[0].Image, data.Items[1].Image}

	inf, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 2, StragglerSlack: 1, Seed: 5}, model, nil, "u/")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inf.Close)
	if err := inf.EnableRecovery(); err != nil {
		t.Fatal(err)
	}
	verdicts := integrityVerdicts(inf)
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	devs := honestDevices(5)
	devs[1] = gpu.NewMalicious(devs[1], gpu.FaultPolicy{EveryNth: 1})
	devs[3] = gatedDevice{Device: devs[3], gate: gate}
	tk, err := inf.Submit(gpu.NewCluster(devs...), images)
	if err != nil {
		t.Fatal(err)
	}
	err = tk.Wait()
	var ie *IntegrityError
	if !errors.As(err, &ie) || !errors.Is(err, masking.ErrIntegrity) {
		t.Fatalf("err = %v, want an *IntegrityError wrapping masking.ErrIntegrity", err)
	}
	if len(ie.Culprits) != 0 {
		t.Fatalf("culprits = %v, want none: one present check cannot attribute", ie.Culprits)
	}
	if got := verdicts(); len(got) != 1 || !strings.HasPrefix(got[0], "unattributed") {
		t.Fatalf("integrity events = %q, want exactly one unattributed verdict", got)
	}
	if c := tk.Culprits(); len(c) != 0 {
		t.Fatalf("ticket culprits = %v, want none", c)
	}
}

func TestRecoveryAttributesAroundPromptLaggard(t *testing.T) {
	// E=2, slack 1, recovery on, with a tamperer and a slow honest device:
	// the quorum gather returns without the slow response, leaving one
	// present check, which detects the tamper but cannot name it. The
	// slow device's calls cannot block, so the audit waits for its answer
	// and names the culprit from two checks; the batch recovers to the
	// spec's logits bit for bit.
	const bad = 1
	model := pipeModel()
	images := pipeBatches(2, 1, 64)[0]
	want := stack.New(pipeModel(), 2).Forward(images)

	inf, err := NewInferencer(Config{VirtualBatch: 2, Redundancy: 2, StragglerSlack: 1, Seed: 5}, model, nil, "p/")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inf.Close)
	if err := inf.EnableRecovery(); err != nil {
		t.Fatal(err)
	}
	verdicts := integrityVerdicts(inf)
	devs := honestDevices(5)
	devs[bad] = gpu.NewMalicious(devs[bad], gpu.FaultPolicy{EveryNth: 1})
	devs[3] = gpu.NewSlow(devs[3], 50*time.Millisecond)
	tk, err := inf.Submit(gpu.NewCluster(devs...), images)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("recovery should name the tamperer once the slow answer lands: %v", err)
	}
	sameLogits(t, "recovered", 0, want, tk.Logits())
	if c := tk.Culprits(); len(c) != 1 || c[0] != bad {
		t.Fatalf("culprits = %v, want [%d]", c, bad)
	}
	got := verdicts()
	if len(got) == 0 {
		t.Fatal("no integrity verdict recorded")
	}
	for _, v := range got {
		if v != "culprit slots [1], recovered from clean equations" {
			t.Fatalf("integrity events = %q, want every one attributed to slot %d and recovered", got, bad)
		}
	}
}

func TestInferencerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	model := nn.TinyCNN(1, 8, 8, 4, rng)
	data := dataset.SyntheticCIFAR(rand.New(rand.NewSource(7)), 4, 4, 1, 8, 8, 0.05)

	if _, err := NewInferencer(Config{VirtualBatch: 0}, model, nil, ""); err == nil {
		t.Fatal("K=0 accepted")
	}

	inf, err := NewInferencer(Config{VirtualBatch: 2, Seed: 5}, model, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := inf.Gang(); got != 3 {
		t.Fatalf("gang = %d, want 3 (K=2, M=1, E=0)", got)
	}
	// Wrong image count.
	if _, err := inf.Predict(gpu.NewHonestCluster(3), [][]float64{data.Items[0].Image}); err == nil {
		t.Fatal("wrong image count accepted")
	}
	// Undersized fleet: the gang cannot fit.
	if _, err := inf.Predict(gpu.NewHonestCluster(2), [][]float64{data.Items[0].Image, data.Items[1].Image}); err == nil {
		t.Fatal("undersized fleet accepted")
	}
}
