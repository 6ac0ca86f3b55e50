package core

import (
	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/plane"
)

// This file is the stack executor (DESIGN.md §14): the one implementation of
// the composable lookup-plane pipeline — inference (compiled, reference or
// quantized) → bounded secondary search → bucket fetch — that every exported
// Lookup* entry point wraps with a constant plane.StackConfig. The arms
// (lookup and its traced form trace, finishBatch) take the inference plane as
// an argument and switch on it where the arithmetic differs, so dispatching on
// a constant config adds a predictable branch and no other work to the hot
// paths; the equivalence of every configuration against the trie oracle is
// enforced by internal/planetest (FuzzStackVsOracle,
// TestLookupEntryPointsEquivalent).

// LookupStack answers one key through the stack selected by st.
func (e *Engine) LookupStack(st plane.StackConfig, k keys.Value) (action uint64, ok bool) {
	return e.lookup(st.Inference, k)
}

// LookupBatchStack resolves ks positionally through the stack selected by st:
// out[i] answers ks[i] (out is reused when it has capacity). DRAM bucket
// fetches route through mem.
func (e *Engine) LookupBatchStack(st plane.StackConfig, ks []keys.Value, out []BatchResult, mem cachesim.Mem) []BatchResult {
	if cap(out) < len(ks) {
		out = make([]BatchResult, len(ks))
	}
	out = out[:len(ks)]
	if st.Inference == plane.Reference {
		for i, k := range ks {
			tr := e.trace(plane.Reference, k, mem, nil, tally.Stripe(), false)
			out[i] = BatchResult{Action: tr.Action, Matched: tr.Matched}
		}
		return out
	}
	e.finishBatch(st.Inference, ks, mem, out)
	return out
}

// LookupStack answers one key from the live engine through the stack
// selected by st (the Updatable analogue of Engine.LookupStack).
func (u *Updatable) LookupStack(st plane.StackConfig, k keys.Value) (action uint64, ok bool) {
	return u.engine.Load().lookup(st.Inference, k)
}
