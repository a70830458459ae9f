package darknight

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"darknight/internal/masking"
	"darknight/internal/nn"
	"darknight/internal/spec/stack"
)

// stackArchs are the BuildModel names FuzzStack draws from.
var stackArchs = []string{"tiny", "vgg", "resnet", "mobilenet", "deep"}

// The device faults a FuzzStack case can carry.
const (
	noFault = iota
	slowDevice
	tamperer
)

// The malformed inputs a FuzzStack case can carry.
const (
	wellFormed = iota
	shortImage
	badLabel
)

// stackCase is one FuzzStack input, folded into the ranges the facade
// accepts.
type stackCase struct {
	arch                  string
	k, m, e, slack, depth int
	managed               bool
	fault, device         int
	malformed             int
	seed                  int64
}

func newStackCase(arch, k, m, e, slack, depth uint8, managed bool, fault, device, malformed uint8, seed int64) stackCase {
	c := stackCase{
		arch:      stackArchs[int(arch)%len(stackArchs)],
		k:         1 + int(k)%4,
		m:         1 + int(m)%2,
		e:         int(e) % 3,
		slack:     int(slack) % 2,
		depth:     int(depth) % 4, // 0 and 1 both mean one lane
		managed:   managed,
		fault:     int(fault) % 3,
		malformed: int(malformed) % 3,
		seed:      seed,
	}
	gang := c.k + c.m + c.e
	switch c.fault {
	case slowDevice:
		c.device = int(device) % (gang * max(1, c.depth))
	case tamperer:
		// Only a tamperer the forward parity check must catch: every
		// response is waited for (slack 0), one is redundant (E >= 1), and
		// the device serves the first virtual batch.
		if c.slack != 0 || c.e == 0 {
			c.fault = noFault
		}
		c.device = int(device) % gang
	}
	return c
}

// FuzzStack is the whole-stack differential check: the facade, at any
// architecture, operating point (K ≤ 4, M ≤ 2, E ≤ 2, slack ≤ 1), pipeline
// depth, gang source (raw cluster or ManagedFleet) and with at most one
// slow device, must train to weights, report losses, and predict logits and
// classes bit-identical to internal/spec/stack — the §3.1 flow and
// Algorithm 2 as plain loops, with no coding at all. A tamperer on the
// first gang must instead fail the first step with an integrity error and
// leave the weights untouched, and a malformed image or label must be an
// error, not a crash.
//
// Besides the seeds below, testdata/fuzz/FuzzStack holds one named entry
// per combination of pipeline depth (0–2), gang source and slack (0–1) —
// TinyCNN at K=2, E=2 with device 0 slow — since the three knobs are
// independent and must compose.
func FuzzStack(f *testing.F) {
	//    arch, k, m, e, slack, depth, managed, fault, device, malformed, seed
	f.Add(uint8(0), uint8(1), uint8(0), uint8(1), uint8(0), uint8(2), false, uint8(noFault), uint8(0), uint8(wellFormed), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint8(1), uint8(2), true, uint8(slowDevice), uint8(2), uint8(wellFormed), int64(2))
	f.Add(uint8(2), uint8(1), uint8(0), uint8(2), uint8(1), uint8(3), true, uint8(slowDevice), uint8(0), uint8(wellFormed), int64(3))
	f.Add(uint8(3), uint8(2), uint8(0), uint8(1), uint8(0), uint8(1), false, uint8(noFault), uint8(0), uint8(wellFormed), int64(4))
	f.Add(uint8(4), uint8(3), uint8(1), uint8(2), uint8(1), uint8(2), false, uint8(slowDevice), uint8(5), uint8(wellFormed), int64(5))
	f.Add(uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), false, uint8(noFault), uint8(0), uint8(wellFormed), int64(6))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(1), uint8(0), uint8(2), true, uint8(tamperer), uint8(1), uint8(wellFormed), int64(7))
	f.Add(uint8(4), uint8(1), uint8(0), uint8(2), uint8(0), uint8(1), false, uint8(tamperer), uint8(3), uint8(wellFormed), int64(8))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(2), false, uint8(noFault), uint8(0), uint8(shortImage), int64(9))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(1), uint8(0), uint8(1), true, uint8(noFault), uint8(0), uint8(badLabel), int64(10))
	f.Fuzz(func(t *testing.T, arch, k, m, e, slack, depth uint8, managed bool, fault, device, malformed uint8, seed int64) {
		newStackCase(arch, k, m, e, slack, depth, managed, fault, device, malformed, seed).run(t)
	})
}

func (c stackCase) run(t *testing.T) {
	const steps, vbatches = 2, 3
	model, err := BuildModel(c.arch, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	refModel, _ := BuildModel(c.arch, c.seed)
	initial := refModel.Weights()
	// One example past the last full virtual batch: Algorithm 2 drops it.
	batch := SyntheticDataset(vbatches*c.k+1, 4, 1, 8, 8, c.seed)
	cfg := Config{
		VirtualBatch:       c.k,
		Collusion:          c.m,
		Redundancy:         c.e,
		StragglerSlack:     c.slack,
		TrainPipelineDepth: c.depth,
		ManagedFleet:       c.managed,
		SlowDelay:          time.Millisecond,
		Momentum:           0.9,
		Seed:               c.seed,
	}
	switch c.fault {
	case slowDevice:
		cfg.SlowGPUs = []int{c.device}
	case tamperer:
		cfg.MaliciousGPUs = []int{c.device}
	}
	sys, err := NewSystem(model, cfg)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	defer sys.Close()
	images := make([][]float64, c.k)
	for i := range images {
		images[i] = batch[i].Image
	}

	if c.malformed != wellFormed {
		if c.malformed == shortImage {
			batch[0].Image = batch[0].Image[:10]
			if _, err := sys.Predict(append([][]float64{batch[0].Image}, images[1:]...)); err == nil {
				t.Fatalf("%+v: a short image predicted without error", c)
			}
		} else {
			batch[0].Label = 4
		}
		if _, err := sys.TrainBatch(batch); err == nil {
			t.Fatalf("%+v: a malformed batch trained without error", c)
		}
		sameFloats(t, c, "weights after the refused step", initial, model.Weights())
		return
	}
	if c.fault == tamperer {
		_, err := sys.TrainBatch(batch)
		if !errors.Is(err, masking.ErrIntegrity) {
			t.Fatalf("%+v: first step error %v, want an integrity violation", c, err)
		}
		sameFloats(t, c, "weights after the tampered step", initial, model.Weights())
		return
	}

	ref := stack.New(refModel.m, c.k)
	opt := nn.NewSGD(0.05, 0.9)
	for step := 0; step < steps; step++ {
		loss, err := sys.TrainBatch(batch)
		if err != nil {
			t.Fatalf("%+v: step %d: %v", c, step, err)
		}
		if want := ref.TrainLargeBatch(batch, opt); math.Float64bits(loss) != math.Float64bits(want) {
			t.Fatalf("%+v: step %d: loss %v, spec %v", c, step, loss, want)
		}
	}
	sameFloats(t, c, "trained weights", refModel.Weights(), model.Weights())

	logits, err := sys.inf.Forward(sys.cluster, images)
	if err != nil {
		t.Fatalf("%+v: forward: %v", c, err)
	}
	want := ref.Forward(images)
	classes := make([]int, c.k)
	for i := range want {
		sameFloats(t, c, "logits", want[i].Data, logits[i].Data)
		classes[i] = nn.Argmax(want[i])
	}
	got, err := sys.Predict(images)
	if err != nil {
		t.Fatalf("%+v: predict: %v", c, err)
	}
	if !slices.Equal(got, classes) {
		t.Fatalf("%+v: classes %v, spec %v", c, got, classes)
	}
}

// sameFloats fails unless got equals want bit for bit.
func sameFloats(t *testing.T, c stackCase, what string, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%+v: %s: %d values, spec %d", c, what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%+v: %s[%d] = %v, spec %v", c, what, i, got[i], want[i])
		}
	}
}
