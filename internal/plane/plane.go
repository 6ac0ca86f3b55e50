// Package plane names the composable lookup-plane stack (DESIGN.md §14).
//
// A NeuroLPM lookup is a pipeline of planes: an optional result-cache probe
// (internal/lcache), an inference plane predicting the range index (the
// reference RQRMI model, its compiled float32 flat form, or the int32
// fixed-point quantized form, internal/rqrmi), a bounded
// secondary search, and — for bucketized engines — one DRAM bucket fetch.
// Earlier PRs grew one hand-wired method per plane combination; this package
// collapses the combination space into a value, StackConfig, that the single
// stack executor in internal/core branches on. The executors are written so
// the exported per-combination entry points (Lookup, LookupBatch,
// LookupReference, ...) are thin constant-config wrappers that compile down to
// the same hot paths as before — zero-overhead is a hard requirement; the
// benchmark's `core.batch_ns` (benchmark/, BENCHMARK.json) times the cache-off
// batch path the serving plane calls.
//
// The full test matrix — {single, sharded} × {compiled, reference,
// quantized} × {cached, uncached} — is enumerated by Combos; internal/planetest runs one
// differential fuzz + metamorphic suite over it, so every combination (and
// every future plane) gets trie-oracle coverage without its own harness.
package plane

import (
	"fmt"

	"neurolpm/internal/telemetry"
)

// Inference selects the inference plane of the stack: which arithmetic
// predicts the range index before the bounded secondary search.
type Inference uint8

const (
	// Compiled runs the devirtualized flat-storage RQRMI plane
	// (rqrmi.Compiled) — the float32 production hot path. Bit-identical
	// to Reference by construction (rqrmi.FuzzCompiledVsModel).
	Compiled Inference = iota
	// Reference runs the pointer-walking rqrmi.Model arithmetic — the
	// plane the error-bound analysis is stated against.
	Reference
	// Quantized runs the int32 fixed-point shift-add plane
	// (rqrmi.Quantized): no float ops, half the coefficient bank. Its
	// error bounds are recomputed in the same integer arithmetic
	// (bound-inclusion, not bit-identity — DESIGN.md §15), so the bounded
	// search still lands on exactly the true index for every key
	// (rqrmi.FuzzQuantizedVsModel).
	Quantized

	// NumInference bounds the enum; every variant below it must have an
	// entry in inferenceNames (TestInferenceStringExhaustive).
	NumInference
)

var inferenceNames = [NumInference]string{
	Compiled:  "compiled",
	Reference: "reference",
	Quantized: "quantized",
}

// String returns the stable spelling used in test names, /trace output and
// experiment tables.
func (i Inference) String() string {
	if i < NumInference && inferenceNames[i] != "" {
		return inferenceNames[i]
	}
	return fmt.Sprintf("inference(%d)", uint8(i))
}

// StackConfig selects one lookup-plane stack. The zero value is the
// production default: compiled inference, no result-cache probe.
type StackConfig struct {
	// Inference picks the inference plane.
	Inference Inference
	// Cached prepends the result-cache probe plane (internal/lcache).
	// The probe degrades to a no-op on a nil cache, so Cached=true with
	// the plane disabled still answers correctly — it just never hits.
	Cached bool
}

// String returns e.g. "compiled" or "reference+lcache".
func (c StackConfig) String() string {
	s := c.Inference.String()
	if c.Cached {
		s += "+lcache"
	}
	return s
}

// Topology says whether the stack runs on one engine or fans out across the
// sharded router.
type Topology uint8

const (
	Single Topology = iota
	Sharded
)

// String returns the stable spelling used in test names.
func (t Topology) String() string {
	if t == Sharded {
		return "sharded"
	}
	return "single"
}

// Combo is one cell of the full 2×3×2 matrix.
type Combo struct {
	Topology Topology
	Stack    StackConfig
}

// String returns e.g. "sharded/compiled+lcache".
func (c Combo) String() string { return c.Topology.String() + "/" + c.Stack.String() }

// Matrix enumerates the six stack configurations: every inference plane,
// uncached then cached.
func Matrix() []StackConfig {
	out := make([]StackConfig, 0, 2*NumInference)
	for _, cached := range []bool{false, true} {
		for i := Inference(0); i < NumInference; i++ {
			out = append(out, StackConfig{Inference: i, Cached: cached})
		}
	}
	return out
}

// Combos enumerates all twelve {single,sharded}×{compiled,reference,
// quantized}×{cached,uncached} combinations.
func Combos() []Combo {
	var out []Combo
	for _, topo := range []Topology{Single, Sharded} {
		for _, st := range Matrix() {
			out = append(out, Combo{Topology: topo, Stack: st})
		}
	}
	return out
}

// The stack's stage identifiers, in pipeline order. These alias the
// flight-recorder stage slots (internal/telemetry): the recorder's per-stage
// stamps are defined to be the stack's plane boundaries, so /trace and the
// flight ring name exactly the planes a StackConfig composes.
const (
	StageProbe     = telemetry.StageProbe     // result-cache probe
	StageInference = telemetry.StageInference // RQRMI prediction
	StageSearch    = telemetry.StageSearch    // bounded secondary search
	StageFetch     = telemetry.StageFetch     // DRAM bucket fetch + scan
)
