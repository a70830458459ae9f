package darknight

import (
	"context"
	"testing"
	"time"
)

// TestServeSLOBurnRiseAndRecover is the end-to-end burn-rate acceptance:
// real serving traffic through a uniformly slow cluster must push the
// tenant's latency burn rate over 1.0 and fire the breach hook into the
// fleet; once the incident slides out of the evaluation window the burn
// rate must recover below 1.0. The obs-level SLO tests pin the arithmetic
// under a fake clock — this one pins the wiring: serve feeds the tracker,
// the tracker feeds the fleet, and the window actually slides.
func TestServeSLOBurnRiseAndRecover(t *testing.T) {
	const window = 400 * time.Millisecond
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 3) }, ServerConfig{
		Config: Config{
			VirtualBatch: 2,
			Seed:         3,
			EnclaveBytes: -1,
			SlowDelay:    3 * time.Millisecond,
		},
		SlowAll: true, // every request rides a straggling device
		Workers: 1,
		MaxWait: time.Millisecond,
		Observability: ObservabilityConfig{
			Enabled: true,
			SLO: SLOConfig{
				Objectives: []SLOObjective{{
					Tenant:        "*",
					LatencyTarget: 500 * time.Microsecond,
					LatencyGoal:   0.5,
				}},
				Windows: []time.Duration{window},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	data := SyntheticDataset(8, 4, 1, 8, 8, 4)
	for i := 0; i < 16; i++ {
		if _, err := srv.Infer(context.Background(), data[i%len(data)].Image); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// Every request spent >= 3ms against a 500µs target with a 0.5 goal:
	// burn = 1/(1-0.5) = 2.
	tracker := srv.SLO()
	burning := false
	for _, br := range tracker.BurnRates() {
		if br.SLO == "latency" && br.Burn >= 1 {
			burning = true
		}
	}
	if !burning {
		t.Fatalf("no latency burn under injected 3ms straggle: %+v", tracker.BurnRates())
	}
	if tracker.Breaches() == 0 {
		t.Fatal("burn crossed the threshold but no breach was recorded")
	}
	if srv.FleetStats().SLOBreaches == 0 {
		t.Fatal("breach did not reach the fleet via SubscribeSLO")
	}

	// Recovery: with the incident outside the sliding window, the burn
	// rate computed at read time must drop below threshold.
	time.Sleep(window + 100*time.Millisecond)
	for _, br := range tracker.BurnRates() {
		if br.Burn >= 1 {
			t.Fatalf("burn rate did not recover after the window slid: %+v", br)
		}
	}
}
