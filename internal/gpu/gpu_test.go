package gpu

import (
	"math/rand"
	"testing"
	"time"

	"darknight/internal/field"
)

func scaleKernel(s field.Elem) LinearKernel {
	return func(x field.Vec) field.Vec { return field.ScaleVec(s, x) }
}

func dotKernel(delta, x field.Vec) field.Vec {
	return field.Vec{field.Dot(delta, x)}
}

func TestHonestDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewHonest(0)
	x := field.RandVec(rng, 10)
	y := d.LinearForward(scaleKernel(3), x)
	want := field.ScaleVec(3, x)
	if !y.Equal(want) {
		t.Fatal("forward result wrong")
	}
	delta := field.RandVec(rng, 10)
	if g := d.GradWeights(dotKernel, delta, x); g[0] != field.Dot(delta, x) {
		t.Fatal("backward used the wrong input")
	}
	tr := d.Traffic()
	if tr.Jobs != 2 || tr.BytesIn != 2*10*4 || tr.BytesOut != (10+1)*4 {
		t.Fatalf("traffic = %+v", tr)
	}
}

func TestMaliciousDevicePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inner := NewHonest(1)
	dev := NewMalicious(inner, FaultPolicy{EveryNth: 2, Offset: 1})
	x := field.RandVec(rng, 5)
	honest := field.ScaleVec(7, x)
	// Offset=1 skips job 1; thereafter every 2nd job corrupts when the
	// post-offset counter hits a multiple of EveryNth: jobs 3 and 5.
	wantCorrupt := []bool{false, false, true, false, true}
	for i, want := range wantCorrupt {
		y := dev.LinearForward(scaleKernel(7), x)
		got := !y.Equal(honest)
		if got != want {
			t.Fatalf("job %d: corrupted=%v, want %v", i+1, got, want)
		}
	}
	if c := dev.(*malicious).Corruptions(); c != 2 {
		t.Fatalf("corruptions = %d", c)
	}
}

func TestMaliciousSeededProbabilityIsDeterministic(t *testing.T) {
	// Two devices with the same seeded probabilistic policy must corrupt the
	// exact same job sequence — fault-injection runs reproduce bit-for-bit.
	rng := rand.New(rand.NewSource(5))
	x := field.RandVec(rng, 6)
	honest := field.ScaleVec(5, x)
	run := func(seed int64) []bool {
		dev := NewMalicious(NewHonest(0), FaultPolicy{Probability: 0.4, Seed: seed})
		out := make([]bool, 40)
		for i := range out {
			out[i] = !dev.LinearForward(scaleKernel(5), x).Equal(honest)
		}
		return out
	}
	a, b := run(9), run(9)
	corrupted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d: same seed diverged (%v vs %v)", i, a[i], b[i])
		}
		if a[i] {
			corrupted++
		}
	}
	if corrupted == 0 || corrupted == len(a) {
		t.Fatalf("probability 0.4 corrupted %d/%d jobs; want a strict subset", corrupted, len(a))
	}
	c := run(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestSlowDeviceIsCorrectJustLate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := field.RandVec(rng, 8)
	dev := NewSlow(NewHonest(0), time.Millisecond)
	start := time.Now()
	y := dev.LinearForward(scaleKernel(3), x)
	if time.Since(start) < time.Millisecond {
		t.Fatal("slow device returned early")
	}
	if !y.Equal(field.ScaleVec(3, x)) {
		t.Fatal("slow device corrupted the result")
	}
}

func TestMaliciousDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dev := NewMalicious(NewHonest(0), FaultPolicy{})
	x := field.RandVec(rng, 4)
	if !dev.LinearForward(scaleKernel(2), x).Equal(field.ScaleVec(2, x)) {
		t.Fatal("disabled policy still corrupted")
	}
}

func TestColludingRecordsViews(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := new(CollusionPool)
	d0 := NewColluding(NewHonest(0), pool)
	d1 := NewColluding(NewHonest(1), pool)
	x0 := field.RandVec(rng, 6)
	x1 := field.RandVec(rng, 6)
	d0.LinearForward(scaleKernel(1), x0)
	d1.LinearForward(scaleKernel(1), x1)
	obs := pool.Observations(0)
	if len(obs) != 2 {
		t.Fatalf("observations = %d", len(obs))
	}
	if !obs[0].Data.Equal(x0) || !obs[1].Data.Equal(x1) {
		t.Fatal("pool recorded wrong views")
	}
	if len(pool.Observations(1)) != 0 {
		t.Fatal("unexpected observations")
	}
}

func TestClusterParallelDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewHonestCluster(4)
	coded := make([]field.Vec, 4)
	for i := range coded {
		coded[i] = field.RandVec(rng, 100)
	}
	results, err := c.ForwardAll("l1", scaleKernel(5), coded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coded {
		if !results[i].Equal(field.ScaleVec(5, coded[i])) {
			t.Fatalf("device %d result wrong", i)
		}
	}
	// Backward on inputs its own flight kept: the deltas, forwarded first.
	deltas := make([]field.Vec, 4)
	for i := range deltas {
		deltas[i] = field.RandVec(rng, 100)
	}
	grads, err := c.BackwardAll("l1", dotKernel, deltas)
	if err != nil {
		t.Fatal(err)
	}
	for i := range grads {
		if grads[i][0] != field.Dot(deltas[i], deltas[i]) {
			t.Fatalf("device %d gradient wrong", i)
		}
	}
	if c.TotalTraffic().Jobs != 12 {
		t.Fatalf("traffic jobs = %d", c.TotalTraffic().Jobs)
	}
}

func TestClusterTooManyInputs(t *testing.T) {
	c := NewHonestCluster(2)
	coded := make([]field.Vec, 3)
	for i := range coded {
		coded[i] = field.Vec{1}
	}
	if _, err := c.ForwardAll("k", scaleKernel(1), coded); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if _, err := c.BackwardAll("k", dotKernel, coded); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

// Corruptions reports how many outputs this device tampered with.
func (m *malicious) Corruptions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.corruptions
}
