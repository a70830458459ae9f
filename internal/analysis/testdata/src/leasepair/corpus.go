// Package corpus exercises the leasepair analyzer's value-pair rule:
// fleet grants and block flights must be released or handed off by the
// function that acquires them.
package corpus

import (
	"context"

	"darknight/internal/fleet"
	"darknight/internal/gpu"
)

// leakedFlight: opened, used, never ended, never escapes.
func leakedFlight(c *gpu.Cluster) int {
	bf, err := c.BeginBlock(2) // want "never released"
	if err != nil {
		return 0
	}
	return bf.Slots()
}

// leakedGrant: acquired, used, never released, never escapes.
func leakedGrant(ctx context.Context, m *fleet.Manager) error {
	g, err := m.Acquire(ctx, "tenant-a", 4) // want "never released"
	if err != nil {
		return err
	}
	_ = g.Size()
	return nil
}

// leakedTryAcquire: TryAcquire leaks the same way when the nil check is
// the only thing the caller does with the grant.
func leakedTryAcquire(m *fleet.Manager) bool {
	g, err := m.TryAcquire("tenant-b", 1) // want "never released"
	if err != nil || g == nil {
		return false
	}
	return true
}

// discardedFlight: the result thrown away outright — capacity pinned
// with no handle left to free it.
func discardedFlight(c *gpu.Cluster) {
	_, _ = c.BeginBlock(2) // want "acquired and discarded"
}

// expectFailure: discarding the value while keeping the error is the
// expect-failure idiom — the grant is nil exactly when err is non-nil,
// so there is nothing to release. Clean.
func expectFailure(ctx context.Context, m *fleet.Manager) bool {
	_, err := m.Acquire(ctx, "tenant-z", 9999)
	return err != nil
}

// deferRelease is the canonical clean shape.
func deferRelease(ctx context.Context, m *fleet.Manager) error {
	held, err := m.Acquire(ctx, "tenant-g", 1)
	if err != nil {
		return err
	}
	defer held.Release()
	return nil
}

// directRelease: releasing on the straight-line path also counts.
func directRelease(ctx context.Context, m *fleet.Manager) error {
	g, err := m.Acquire(ctx, "tenant-c", 2)
	if err != nil {
		return err
	}
	g.Release()
	return nil
}

// flightEnded: BeginBlock balanced by End.
func flightEnded(g *fleet.Grant) error {
	bf, err := g.BeginBlock(1)
	if err != nil {
		return err
	}
	defer bf.End()
	return nil
}

// returned: ownership moves to the caller; the acquiring function is off
// the hook.
func returned(ctx context.Context, m *fleet.Manager) (*fleet.Grant, error) {
	return m.Acquire(ctx, "tenant-d", 1)
}

// returnedVar: same, through a variable.
func returnedVar(c *gpu.Cluster) (*gpu.BlockFlight, error) {
	bf, err := c.BeginBlock(1)
	if err != nil {
		return nil, err
	}
	return bf, nil
}

// handedOff: passing the value to another call moves ownership too (the
// serve worker hands grants to submit this way).
func handedOff(ctx context.Context, m *fleet.Manager) error {
	g, err := m.Acquire(ctx, "tenant-e", 2)
	if err != nil {
		return err
	}
	settle(g)
	return nil
}

func settle(g *fleet.Grant) {
	if g != nil {
		g.Release()
	}
}

// storedInStruct: stashing the grant in a structure is an escape — some
// other lifecycle owns it now.
type flight struct {
	grant *fleet.Grant
}

func storedInStruct(ctx context.Context, m *fleet.Manager) (*flight, error) {
	g, err := m.Acquire(ctx, "tenant-f", 1)
	if err != nil {
		return nil, err
	}
	return &flight{grant: g}, nil
}

// releasedInClosure: a deferred closure doing the release is still a
// release (the scan crosses into function literals).
func releasedInClosure(ctx context.Context, m *fleet.Manager) error {
	grant, err := m.Acquire(ctx, "tenant-h", 1)
	if err != nil {
		return err
	}
	defer func() {
		grant.Release()
	}()
	return nil
}

// blessedLeak: a deliberate hold — the process-lifetime pin — carries a
// suppression with its justification.
func blessedLeak(ctx context.Context, m *fleet.Manager) {
	//lint:ignore leasepair process-lifetime pin: the devices stay reserved until shutdown
	pin, _ := m.Acquire(ctx, "tenant-pin", 1)
	_ = pin
}
