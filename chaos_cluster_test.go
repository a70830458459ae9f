package darknight

import (
	"fmt"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/gpu"
	"darknight/internal/obs"
	"darknight/internal/obs/replay"
)

// TestChaosOverSlowDevicePaysLatencyOncePerFlight: with chaos on and a
// slow device, replay.BuildCluster, the one builder that live deployments
// and replay share, keeps the straggler wrapper outermost over the chaos
// actuator, so the layers a flight sends that device share one launch
// delay — the once-per-trip model — instead of each job paying it. The
// bound sits halfway between the two models (one delay against one per
// layer).
func TestChaosOverSlowDevicePaysLatencyOncePerFlight(t *testing.T) {
	const delay, layers = 40 * time.Millisecond, 8
	ci := obs.ClusterInfo{Size: 1, Slow: []obs.SlowDevice{{Index: 0, DelayNs: int64(delay)}}}
	cluster, chaos, err := replay.BuildCluster(ci, true)
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
