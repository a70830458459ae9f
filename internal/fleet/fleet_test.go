package fleet

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"darknight/internal/field"
	"darknight/internal/gpu"
)

func scaleKernel(s field.Elem) gpu.LinearKernel {
	return func(x field.Vec) field.Vec { return field.ScaleVec(s, x) }
}

func codedInputs(n, length int, seed int64) []field.Vec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]field.Vec, n)
	for i := range out {
		out[i] = field.RandVec(rng, length)
	}
	return out
}

func TestAcquireGangAllOrNone(t *testing.T) {
	m := NewManager(gpu.NewHonestCluster(5), Config{})
	g, err := m.Acquire(context.Background(), "a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 {
		t.Fatalf("gang size %d", g.Size())
	}
	// The 2 remaining devices cannot satisfy a second gang of 3.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := m.Acquire(ctx, "a", 3); err == nil {
		t.Fatal("partial gang handed out")
	}
	st := m.Stats()
	if st.Healthy != 5 {
		t.Fatalf("healthy = %d, want 5", st.Healthy)
	}
	g.Release()
	g.Release() // idempotent
	g2, err := m.Acquire(context.Background(), "a", 5)
	if err != nil {
		t.Fatal(err)
	}
	g2.Release()
	if _, err := m.Acquire(context.Background(), "a", 6); err == nil {
		t.Fatal("impossible gang accepted")
	}
}

func TestAcquireCancelLeaksNothing(t *testing.T) {
	m := NewManager(gpu.NewHonestCluster(3), Config{})
	hold, err := m.Acquire(context.Background(), "a", 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(ctx, "b", 1)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	hold.Release()
	full, err := m.Acquire(context.Background(), "a", 3)
	if err != nil {
		t.Fatalf("pool damaged by cancelled waiter: %v", err)
	}
	full.Release()
	if st := m.Stats(); st.Tenants[1].Queued != 0 {
		t.Fatalf("cancelled waiter still queued: %+v", st.Tenants)
	}
}

func TestExactFaultQuarantinesImmediately(t *testing.T) {
	m := NewManager(gpu.NewHonestCluster(4), Config{ProbationProbability: -1})
	g, err := m.Acquire(context.Background(), "a", 3)
	if err != nil {
		t.Fatal(err)
	}
	badSlot := 1
	badID := g.DeviceIDs()[badSlot]
	g.ReportFaults([]int{badSlot})
	g.Release()

	st := m.Stats()
	if st.Quarantined != 1 || st.QuarantineEvents != 1 {
		t.Fatalf("quarantined=%d events=%d, want 1/1", st.Quarantined, st.QuarantineEvents)
	}
	for _, d := range st.Devices {
		if d.ID == badID && d.State != Quarantined {
			t.Fatalf("device %d state %v, want quarantined", badID, d.State)
		}
	}
	// The quarantined device never appears in subsequent gangs.
	for i := 0; i < 10; i++ {
		g, err := m.Acquire(context.Background(), "a", 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range g.DeviceIDs() {
			if id == badID {
				t.Fatalf("round %d: quarantined device %d granted", i, badID)
			}
		}
		g.Release()
	}
}

func TestSuspicionAccumulatesAcrossGangs(t *testing.T) {
	// An unattributable fault (E < 2) blames the whole gang a little; the
	// persistent offender crosses the threshold after a few batches.
	m := NewManager(gpu.NewHonestCluster(3), Config{ProbationProbability: -1})
	rounds := 0
	for m.Stats().Quarantined == 0 {
		rounds++
		if rounds > 10 {
			t.Fatal("suspicion never crossed the threshold")
		}
		g, err := m.Acquire(context.Background(), "a", 3)
		if err != nil {
			t.Fatal(err)
		}
		g.ReportSuspect()
		g.Release()
	}
	// Default SuspectScore 0.4 vs threshold 1.0: quarantine on round 3.
	if rounds != 3 {
		t.Fatalf("quarantined after %d suspect rounds, want 3", rounds)
	}
	// All three crossed together (same gang every round).
	if st := m.Stats(); st.Quarantined != 3 {
		t.Fatalf("quarantined = %d, want 3", st.Quarantined)
	}
}

func TestProbationReadmissionAndRecovery(t *testing.T) {
	// ProbationProbability 1: the quarantined device is re-admitted on the
	// next admission pass, serves ProbationClean clean dispatches, and
	// returns to full health under a fresh fingerprint.
	m := NewManager(gpu.NewHonestCluster(2), Config{ProbationProbability: 1, ProbationClean: 2, ProbationBackoff: time.Millisecond})
	g, err := m.Acquire(context.Background(), "a", 2)
	if err != nil {
		t.Fatal(err)
	}
	g.ReportFaults([]int{0})
	badID := g.DeviceIDs()[0]
	fpBefore := m.Stats().Devices[badID].Fingerprint
	g.Release()
	if st := m.Stats(); st.Quarantined != 1 {
		t.Fatalf("not quarantined: %+v", st)
	}

	// The next full-fleet acquire triggers an admission pass that must
	// re-admit the device (probability 1) to fit the gang.
	for i := 0; i < 3; i++ {
		g, err := m.Acquire(context.Background(), "a", 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.ForwardQuorum("k", scaleKernel(3), codedInputs(2, 8, 7), 2); err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	st := m.Stats()
	if st.Quarantined != 0 || st.OnProbation != 0 || st.Healthy != 2 {
		t.Fatalf("device did not recover: %+v", st)
	}
	if st.Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", st.Readmissions)
	}
	var bad DeviceHealth
	for _, d := range st.Devices {
		if d.ID == badID {
			bad = d
		}
	}
	if bad.Generation != 1 || bad.Fingerprint == fpBefore {
		t.Fatalf("re-admission kept the old identity: %+v", bad)
	}
	if _, ok := m.reg.Lookup(bad.Fingerprint); !ok {
		t.Fatal("new fingerprint not registered")
	}
	if _, ok := m.reg.Lookup(fpBefore); !ok {
		t.Fatal("old fingerprint lost from registry")
	}
}

func TestProbationFaultReturnsToQuarantine(t *testing.T) {
	m := NewManager(gpu.NewHonestCluster(2), Config{ProbationProbability: 1, ProbationBackoff: time.Millisecond})
	g, _ := m.Acquire(context.Background(), "a", 2)
	g.ReportFaults([]int{0})
	badID := g.DeviceIDs()[0]
	g.Release()

	// Re-admitted on the next acquire; faulting on probation goes straight
	// back (half-threshold head start).
	g2, err := m.Acquire(context.Background(), "a", 2)
	if err != nil {
		t.Fatal(err)
	}
	slot := -1
	for i, id := range g2.DeviceIDs() {
		if id == badID {
			slot = i
		}
	}
	if slot < 0 {
		t.Fatal("probation device not granted")
	}
	g2.ReportFaults([]int{slot})
	g2.Release()
	st := m.Stats()
	if st.Quarantined != 1 || st.QuarantineEvents != 2 {
		t.Fatalf("probation fault not re-quarantined: %+v", st)
	}
}

func TestFairShareFollowsWeights(t *testing.T) {
	// Two tenants at weights 3 and 1 contend for a single-gang fleet with
	// identical closed-loop demand: granted device time must track the
	// weights, not arrival luck.
	m := NewManager(gpu.NewHonestCluster(3), Config{
		Tenants: []TenantConfig{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}},
	})
	// Several clients per tenant keep both queues non-empty, so every
	// admission pass genuinely compares normalized shares (a lone client
	// per tenant degenerates to alternation — at release time only the
	// other tenant is queued).
	var wg sync.WaitGroup
	stop := time.Now().Add(300 * time.Millisecond)
	for _, name := range []string{"gold", "bronze"} {
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				for time.Now().Before(stop) {
					g, err := m.Acquire(context.Background(), name, 3)
					if err != nil {
						t.Error(err)
						return
					}
					time.Sleep(time.Millisecond)
					g.Release()
				}
			}(name)
		}
	}
	wg.Wait()
	st := m.Stats()
	var gold, bronze TenantUsage
	for _, tu := range st.Tenants {
		switch tu.Name {
		case "gold":
			gold = tu
		case "bronze":
			bronze = tu
		}
	}
	if gold.Grants == 0 || bronze.Grants == 0 {
		t.Fatalf("a tenant starved: gold=%d bronze=%d", gold.Grants, bronze.Grants)
	}
	ratio := gold.DeviceSeconds / bronze.DeviceSeconds
	if ratio < 1.8 || ratio > 5.0 {
		t.Fatalf("device-time ratio %.2f for weights 3:1, want within [1.8, 5.0]", ratio)
	}
	// Normalized shares converge: the policy equalizes device-time/weight.
	shareGap := gold.Share / bronze.Share
	if shareGap < 0.55 || shareGap > 1.8 {
		t.Fatalf("normalized share gap %.2f, want near 1.0", shareGap)
	}
}

func TestQuorumReturnsBeforeStraggler(t *testing.T) {
	const delay = 200 * time.Millisecond
	devs := []gpu.Device{
		gpu.NewHonest(0),
		gpu.NewHonest(1),
		gpu.NewHonest(2),
		gpu.NewSlow(gpu.NewHonest(3), delay),
	}
	m := NewManager(gpu.NewCluster(devs...), Config{})
	g, err := m.Acquire(context.Background(), "a", 4)
	if err != nil {
		t.Fatal(err)
	}
	coded := codedInputs(4, 64, 9)
	start := time.Now()
	results, present, err := g.ForwardQuorum("k", scaleKernel(5), coded, 3)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el >= delay {
		t.Fatalf("quorum dispatch took %v, straggler delay is %v", el, delay)
	}
	got := 0
	for j, p := range present {
		if !p {
			continue
		}
		got++
		if !results[j].Equal(field.ScaleVec(5, coded[j])) {
			t.Fatalf("slot %d: wrong result", j)
		}
	}
	if got < 3 {
		t.Fatalf("%d present, want >= 3", got)
	}
	slowSlot := -1
	for i, id := range g.DeviceIDs() {
		if id == 3 {
			slowSlot = i
		}
	}
	if present[slowSlot] {
		t.Fatal("slow device inside the quorum; straggler path untested")
	}
	g.Release()
	if st := m.Stats(); st.StragglerEvents == 0 {
		t.Fatalf("no straggler recorded: %+v", st)
	}
}

func TestSpeculativeRedispatchFillsLaggingSlot(t *testing.T) {
	// Two slow devices, quorum 4 of 5: the quorum cannot form from fast
	// originals alone, so the speculation window must re-dispatch lagging
	// shares to spare devices and beat the stragglers.
	const delay = 300 * time.Millisecond
	devs := []gpu.Device{
		gpu.NewHonest(0),
		gpu.NewHonest(1),
		gpu.NewHonest(2),
		gpu.NewSlow(gpu.NewHonest(3), delay),
		gpu.NewSlow(gpu.NewHonest(4), delay),
		gpu.NewHonest(5), // spare
		gpu.NewHonest(6), // spare
	}
	m := NewManager(gpu.NewCluster(devs...), Config{SpeculateAfter: 5 * time.Millisecond})
	g, err := m.Acquire(context.Background(), "a", 5)
	if err != nil {
		t.Fatal(err)
	}
	// The fleet hands out the fastest devices first, so the gang of 5 holds
	// both slow devices plus three fast ones; spares 2 remain free.
	slow := 0
	for _, id := range g.DeviceIDs() {
		if id == 3 || id == 4 {
			slow++
		}
	}
	if slow != 2 {
		t.Fatalf("gang holds %d slow devices, want 2 (got %v)", slow, g.DeviceIDs())
	}
	coded := codedInputs(5, 64, 10)
	start := time.Now()
	results, present, err := g.ForwardQuorum("k", scaleKernel(7), coded, 4)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el >= delay {
		t.Fatalf("speculation did not beat the stragglers: %v >= %v", el, delay)
	}
	got := 0
	for j := range coded {
		if present == nil || present[j] { // nil: the spares filled every slot
			got++
			if !results[j].Equal(field.ScaleVec(7, coded[j])) {
				t.Fatalf("slot %d: wrong result", j)
			}
		}
	}
	if got < 4 {
		t.Fatalf("%d present, want >= 4", got)
	}
	g.Release()
	if st := m.Stats(); st.Speculations == 0 {
		t.Fatalf("no speculative re-dispatch recorded: %+v", st)
	}
}

func TestQuarantineShrinksPoolThenProbationRestores(t *testing.T) {
	// Quarantine drops the pool below the gang size; a blocked acquire is
	// satisfied once probation re-admits the device.
	m := NewManager(gpu.NewHonestCluster(3), Config{ProbationProbability: 1, ProbationBackoff: time.Millisecond})
	g, _ := m.Acquire(context.Background(), "a", 3)
	g.ReportFaults([]int{2})
	g.Release() // pool now 2 healthy + 1 quarantined

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	g2, err := m.Acquire(ctx, "a", 3) // needs the probation re-admission
	if err != nil {
		t.Fatalf("acquire after quarantine: %v", err)
	}
	g2.Release()
	if st := m.Stats(); st.Readmissions == 0 {
		t.Fatalf("no re-admission recorded: %+v", st)
	}
}

func TestPermanentQuarantineFailsImpossibleGangs(t *testing.T) {
	// Probation disabled and the pool shrunk below the gang size: a waiter
	// must fail with ErrFleetShrunk instead of blocking forever (a wedged
	// Acquire would deadlock the serving drain).
	m := NewManager(gpu.NewHonestCluster(3), Config{ProbationProbability: -1})
	g, _ := m.Acquire(context.Background(), "a", 3)
	g.ReportFaults([]int{0})
	g.Release() // 2 circulating, 1 permanently quarantined

	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(context.Background(), "a", 3)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFleetShrunk) {
			t.Fatalf("err = %v, want ErrFleetShrunk", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("impossible gang blocked forever")
	}
	// Gangs that still fit the shrunken pool keep working.
	g2, err := m.Acquire(context.Background(), "a", 2)
	if err != nil {
		t.Fatal(err)
	}
	g2.Release()
}

func TestStrictShareOrderNoHeadOfLineBypass(t *testing.T) {
	// Admission is in strict share order: with the whole pool free, a
	// large-gang tenant that arrived first and holds the minimum share is
	// granted before a small-gang tenant, even while partial capacity
	// could have served the small gang earlier.
	m := NewManager(gpu.NewHonestCluster(4), Config{})
	hold, _ := m.Acquire(context.Background(), "small", 2) // small: share 2/1
	bigReady := make(chan error, 1)
	go func() {
		g, err := m.Acquire(context.Background(), "big", 4) // blocks: only 2 free
		if err == nil {
			g.Release()
		}
		bigReady <- err
	}()
	time.Sleep(5 * time.Millisecond) // let big enqueue (share 0 < small's)
	smallAgain := make(chan error, 1)
	go func() {
		g, err := m.Acquire(context.Background(), "small", 2) // fits the 2 free...
		if err == nil {
			g.Release()
		}
		smallAgain <- err
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-smallAgain:
		t.Fatal("small gang bypassed the lower-share large-gang waiter")
	default:
	}
	hold.Release() // frees 4: big (share 0) goes first, then small
	if err := <-bigReady; err != nil {
		t.Fatal(err)
	}
	if err := <-smallAgain; err != nil {
		t.Fatal(err)
	}
}

func TestRegistryFingerprints(t *testing.T) {
	r := NewRegistry()
	fp0 := r.Register(4, 0)
	fp1 := r.Register(4, 1)
	if fp0 == fp1 {
		t.Fatal("generations share a fingerprint")
	}
	if fp0 != Fingerprint(4, 0) {
		t.Fatal("fingerprint not deterministic")
	}
	id, ok := r.Lookup(fp1)
	if !ok || id.DeviceID != 4 || id.Generation != 1 {
		t.Fatalf("lookup = %+v, %v", id, ok)
	}
	if _, ok := r.Lookup(12345); ok {
		t.Fatal("phantom fingerprint resolved")
	}
	if r.Size() != 2 {
		t.Fatalf("size = %d", r.Size())
	}
}

// TestTryAcquireNonBlocking pins the non-blocking grant path: an immediate
// grant when capacity is free, (nil, nil) — never a wait — when it is not,
// and no line-jumping past an already blocked waiter.
func TestTryAcquireNonBlocking(t *testing.T) {
	m := NewManager(gpu.NewHonestCluster(6), Config{})
	g1, err := m.TryAcquire("a", 4)
	if err != nil || g1 == nil {
		t.Fatalf("free pool TryAcquire: grant %v err %v", g1, err)
	}
	start := time.Now()
	g2, err := m.TryAcquire("a", 4)
	if err != nil || g2 != nil {
		t.Fatalf("tight pool TryAcquire: grant %v err %v, want nil/nil", g2, err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatalf("TryAcquire blocked for %v", time.Since(start))
	}

	// A blocked Acquire of tenant b is first in share order once g1 frees;
	// a subsequent TryAcquire by tenant a must not jump it.
	got := make(chan *Grant, 1)
	go func() {
		g, err := m.Acquire(context.Background(), "b", 4)
		if err != nil {
			t.Errorf("blocked acquire: %v", err)
		}
		got <- g
	}()
	for queued := false; !queued; { // wait until b is queued
		for _, tu := range m.Stats().Tenants {
			if tu.Name == "b" && tu.Queued > 0 {
				queued = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	g1.Release()
	gb := <-got
	if gb == nil {
		t.Fatal("blocked waiter never granted after release")
	}
	//lint:ignore leasepair TryAcquire must fail here; a non-nil grant fails the test before any leak matters
	if g, _ := m.TryAcquire("a", 4); g != nil {
		t.Fatalf("TryAcquire succeeded while tenant b holds the gang")
	}
	gb.Release()
	g3, err := m.TryAcquire("a", 4)
	if err != nil || g3 == nil {
		t.Fatalf("post-release TryAcquire: grant %v err %v", g3, err)
	}
	g3.Release()
}

// Lookup resolves a fingerprint back to the admission it names.
func (r *Registry) Lookup(fp uint64) (Identity, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.byFP[fp]
	return id, ok
}

// Size returns the number of registered admissions.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byFP)
}
