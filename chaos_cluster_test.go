package darknight

import (
	"fmt"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/gpu"
)

// TestChaosOverSlowDevicePaysLatencyOncePerFlight: with Chaos on and a
// slow device, buildCluster keeps the straggler wrapper outermost, so the
// layers a flight sends that device share one launch delay — the
// once-per-trip model — instead of each job paying it. The bound sits
// halfway between the two models (one delay against one per layer).
func TestChaosOverSlowDevicePaysLatencyOncePerFlight(t *testing.T) {
	const delay, layers = 40 * time.Millisecond, 8
	cluster, chaos, err := buildCluster(Config{GPUs: 1, Chaos: true, SlowGPUs: []int{0}, SlowDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	if len(chaos) != 1 {
		t.Fatalf("got %d chaos handles, want 1", len(chaos))
	}
	f, err := cluster.BeginBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.End()
	x := []field.Vec{field.NewVec(16)}
	identity := func(v field.Vec) field.Vec { return v }
	start := time.Now()
	pending := make([]*gpu.LayerPending, layers)
	for l := range pending {
		if pending[l], err = f.ForwardLayer(fmt.Sprintf("layer%d", l), identity, x); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pending {
		p.Wait()
	}
	if elapsed := time.Since(start); elapsed >= layers*delay/2 {
		t.Fatalf("%d layers on one flight took %v: the %v launch delay was paid per job, not once per flight", layers, elapsed, delay)
	}
}
