package sched

import (
	"fmt"
	"sort"

	"darknight/internal/field"
	"darknight/internal/masking"
)

// This file implements the corrective action the paper explicitly leaves
// as future work (§4.4: "TEE may perform additional corrective action,
// such as executing on another GPU worker") — with Redundancy >= 2 the
// code can not only detect a tampered result but identify the culprit and
// decode from the remaining clean equations, so a single malicious GPU
// cannot stall training.

// recoveryStats counts integrity events across an engine's lifetime.
type recoveryStats struct {
	Violations int // verification failures observed
	Recovered  int // decodes completed despite tampering
	BlamedGPUs []int
}

// recoverForward audits tampered results, identifies culprits and decodes
// the K true outputs from a clean column subset. The audit and the
// clean-subset decode are restricted to the responses that arrived
// (present == nil: all of them); attribution needs two present redundant
// equations, so recovery on the straggler path requires StragglerSlack <=
// E-2. It returns the decoded outputs or an error if attribution/recovery
// is impossible.
func (t *engine) recoverForward(code *masking.Code, results []field.Vec, present []bool) ([]field.Vec, error) {
	culprits, err := code.AuditForwardSubset(results, present)
	if err != nil {
		return nil, fmt.Errorf("sched: integrity violation not recoverable from the present responses: %w", err)
	}
	t.recovery.Violations++
	t.recovery.BlamedGPUs = mergeSorted(t.recovery.BlamedGPUs, culprits)
	t.stepCulprits = mergeSorted(t.stepCulprits, culprits)

	bad := make(map[int]bool, len(culprits))
	for _, c := range culprits {
		bad[c] = true
	}
	var cols []int
	for j := 0; j < code.NumCoded() && len(cols) < code.S; j++ {
		if (present == nil || present[j]) && !bad[j] {
			cols = append(cols, j)
		}
	}
	if len(cols) < code.S {
		return nil, fmt.Errorf("sched: only %d clean present equations, need %d", len(cols), code.S)
	}
	full, err := code.DecodeFull(results, cols)
	if err != nil {
		return nil, fmt.Errorf("sched: clean-subset decode failed: %w", err)
	}
	t.recovery.Recovered++
	t.recordIntegrity(culprits, true)
	return full[:code.K], nil
}

func mergeSorted(have, add []int) []int {
	seen := make(map[int]bool, len(have)+len(add))
	for _, v := range have {
		seen[v] = true
	}
	for _, v := range add {
		seen[v] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
