package gpu

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ErrNoStored is the sentinel wrapped by GradWeights when a device holds no
// cached coded forward input under the requested key. The training runtime
// uses it to detect that the device behind a gang slot changed between the
// forward and backward passes (fleet quarantine, probation re-admission,
// spare re-dispatch, or a quorum laggard that never finished storing) and
// to fall back to re-encoding the stored trace instead of failing the batch.
var ErrNoStored = errors.New("gpu: no stored coded input")

// MissingStoreError aggregates a backward dispatch's cache misses: every
// gang slot whose device lacked the stored coded input. It wraps
// ErrNoStored so errors.Is keeps working.
type MissingStoreError struct {
	Slots []int
}

func (e *MissingStoreError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gpu: no stored coded input on gang slots %v", e.Slots)
	return b.String()
}

func (e *MissingStoreError) Unwrap() error { return ErrNoStored }

// FoldSlotErrors folds per-slot backward errors: if every failure is a
// cache miss it returns a MissingStoreError listing the slots (sorted, so
// callers see deterministic attributions); any other failure wins as-is.
// Gang-level dispatchers (fleet.Grant) share it with Cluster.
func FoldSlotErrors(errs []error) error {
	var missing []int
	for slot, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrNoStored) {
			missing = append(missing, slot)
			continue
		}
		return err
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Ints(missing)
	return &MissingStoreError{Slots: missing}
}

// SlotKey scopes a storage key to one gang slot. Gang-level dispatchers
// (fleet.Grant) store each coded input under its slot-scoped key, so a
// device that lands in a different slot of a later gang — the fleet shuffles
// devices by health — misses cleanly instead of silently serving another
// slot's coded tensor to the backward pass.
func SlotKey(key string, slot int) string { return key + "#s" + strconv.Itoa(slot) }
