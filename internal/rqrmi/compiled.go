package rqrmi

// The compiled query plane: a flattened, devirtualized mirror of a trained
// Model plus its learned Index, built once at engine-build time and used by
// every hot lookup thereafter.
//
// Model.Predict pointer-chases through Stages [][]LUT (three slice headers
// per submodel) and scans knots with a data-dependent loop; Model.Search
// pays a dynamic Index.Low dispatch per probe. The paper's premise (§5.2.2)
// is that inference is ~4 FP ops, so in software those indirections dominate.
// Compile lays every submodel out in one fixed-stride interleaved bank of
// blockStride float32 words —
//
//	[ 0.. 7] knots, padded with +Inf
//	[ 8..16] A coefficients, zero padded
//	[17..25] B coefficients, zero padded
//	[26..31] unused (pads the block to a power of two)
//
// — so submodel id<<blockShift addresses its entire coefficient block with
// no pointer loads, one evaluation touches at most two cache lines (the
// split SoA layout cost three), and the 8 knot comparisons are eight integer
// subtractions with no branch among them (§5.2.2's eight comparators). The
// Index's lower bounds are copied into one keys.Column in the key's own width
// — ⌈w/32⌉ 32-bit limbs a bound on a line-aligned base: 4 bytes a bound at
// width ≤ 32, as the paper's SRAM holds them — so the bounded secondary
// search runs the column's kernel — or, for a block of keys, its lockstep
// form — with zero interface calls, zero allocations and a trip count fixed
// by the window, never by a loaded bound. No search counts
// its probes: Search derives the count from the window and the answer
// (keys.Probes), and Locate, the lookups' form, skips it. The internal
// stages' only output, the final-stage submodel, is a load from a routing
// table over the key's top bits built from the exact responsibility analysis
// (route.go); the stage loop runs only for keys whose cell straddles a
// routing transition.
//
// Bit-identity contract (CLAUDE.md): analyze.go computes error bounds by
// running LUT.eval + scaleClamp + unitOf; the compiled plane must reproduce
// that arithmetic exactly or the bounds silently stop covering the deployed
// engine. Concretely:
//
//   - unit coordinate: same float64 multiply against the same Ldexp scale
//     keys.Domain.ToUnit uses, rounded to float32 once (cached, not
//     recomputed per key — caching changes cost, not value);
//   - segment select: knots are non-decreasing (Model.validate), so the
//     reference scan "first s with u ≤ Knots[s]" equals the count of knots
//     with u > knot; +Inf padding never counts. The count is taken on the
//     IEEE bit patterns as integers, which order exactly as the floats do
//     when neither is negative or NaN: u is never either (unit's product of
//     non-negative finite factors), and Compile refuses a model with such a
//     knot and stores −0 as +0, so the precondition is enforced, not assumed;
//   - MAC: the same float32 A[s]*u + B[s] on the same coefficients;
//   - search: the column's kernels take BoundedSearch's probes in its order
//     and end on its answer, and keys.Probes replays its count from that
//     answer, so indices and counts match the reference exactly; SearchBlock
//     runs the kernel for a block of keys a probe at a time and is held to
//     Search wherever Search is held to the reference.
//
// FuzzCompiledVsModel and the boundary sweep in core.Engine.Verify enforce
// the contract mechanically.

import (
	"fmt"
	"math"
	"math/bits"

	"neurolpm/internal/keys"
)

const (
	// padKnots/padSegs are the per-submodel field sizes: maxSegments
	// segments need maxSegments−1 interior knots (§5.2.2's 8-hidden-ReLU
	// bound).
	padKnots = maxSegments - 1
	padSegs  = maxSegments

	// Block layout inside the interleaved bank (float32 offsets).
	offKnots = 0
	offA     = padKnots           // 8
	offB     = padKnots + padSegs // 17

	// blockStride rounds the 26 used words up to a power of two so block
	// addressing is a shift and consecutive blocks share cache-line
	// boundaries deterministically.
	blockShift  = 5
	blockStride = 1 << blockShift // 32
)

// Compiled is the flat query plane. It is immutable after Compile and safe
// for concurrent use.
type Compiled struct {
	width int
	n     int     // entries in the learned index
	scale float64 // 1 / 2^width: keys.Domain.ToUnit's multiplier, cached

	stageWidth []int32 // submodels per stage
	stageBase  []int32 // stageBase[s] = global id of stage s's first submodel

	bank []float32 // blockStride words per submodel: knots | A | B
	errs []int32   // error bound per submodel (final stage only)

	table routes // the final-stage submodel of most keys, by their top bits (route.go)
	flatLows
}

// flatLows is an index's lower bounds, devirtualized into one column in the
// key's own width. Range/bucket bounds never change after build (deletions
// re-own ranges, they do not move boundaries), so the copy cannot go stale —
// and a Compiled and the Quantized made from it share one.
type flatLows struct {
	bounds keys.Column
}

func flattenLows(ix Index, width int) flatLows {
	return flatLows{keys.NewColumn(width, ix.Len(), ix.Low)}
}

// Low returns entry i's lower bound.
func (f *flatLows) Low(i int) keys.Value { return f.bounds.Low(i) }

// Find returns the entry containing k, the greatest i with Low(i) ≤ k: the
// bounded search over the whole index, for callers with no prediction.
func (f *flatLows) Find(k keys.Value) int { return f.bounds.Search(k, 0, f.bounds.Len()-1) }

// Window is the search window of prediction p: [Index−Err, Index+Err] clamped
// to the index, as Model.Search clamps it.
func (f *flatLows) Window(p Prediction) (lo, hi int) {
	return max(p.Index-p.Err, 0), min(p.Index+p.Err, f.bounds.Len()-1)
}

// Locate is the bounded secondary search over the flat bounds: Search's
// index, without its probe count.
func (f *flatLows) Locate(k keys.Value, p Prediction) int {
	lo, hi := f.Window(p)
	return f.bounds.Search(k, lo, hi)
}

// Probes is the probe count of Search(k, p) for the key Locate(k, p) answered
// idx, derived from the window and the answer (keys.Probes): exact, because a
// learned index's bounds strictly increase.
func (f *flatLows) Probes(p Prediction, idx int) int {
	lo, hi := f.Window(p)
	return keys.Probes(lo, hi, idx)
}

// Search runs the bounded secondary search over the flat bounds copy,
// bit-identical to Model.Search on the source index: the same clamping, the
// same answer, and the canonical loop's probe count, derived from the answer.
func (f *flatLows) Search(k keys.Value, p Prediction) (idx, probes int) {
	idx = f.Locate(k, p)
	return idx, f.Probes(p, idx)
}

// SearchBlock is Locate for a block of at most Block keys, idx[i] =
// Locate(ks[i], ps[i]), every key's search in lockstep (keys.Column.
// SearchBlock). ps must be predictions over this index (0 ≤ Index < Len,
// Err ≥ 0).
func (f *flatLows) SearchBlock(ks []keys.Value, ps []Prediction, idx []int) {
	var his [Block]int
	hs := his[:len(ks)]
	for i, p := range ps[:len(ks)] {
		idx[i], hs[i] = f.Window(p)
	}
	f.bounds.SearchBlock(ks, idx, hs)
}

// Compile flattens a trained model and its learned index into the compiled
// plane. The model must be structurally valid (as Train returns it) and
// trained over exactly this index; both are checked because a mismatch would
// silently void the error bounds.
func Compile(m *Model, ix Index) (*Compiled, error) {
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("rqrmi: compile: %w", err)
	}
	if m.N != ix.Len() {
		return nil, fmt.Errorf("rqrmi: compile: model N=%d does not match index length %d", m.N, ix.Len())
	}
	total := 0
	for _, stage := range m.Stages {
		total += len(stage)
	}
	c := &Compiled{
		width:      m.Width,
		n:          m.N,
		scale:      math.Ldexp(1, -m.Width),
		stageWidth: make([]int32, len(m.Stages)),
		stageBase:  make([]int32, len(m.Stages)),
		bank:       make([]float32, total*blockStride),
		errs:       make([]int32, total),
	}
	inf := float32(math.Inf(1))
	id := 0
	for s, stage := range m.Stages {
		c.stageWidth[s] = int32(len(stage))
		c.stageBase[s] = int32(id)
		for j := range stage {
			l := &stage[j]
			blk := c.bank[id<<blockShift : (id+1)<<blockShift]
			for i := range blk[offKnots : offKnots+padKnots] {
				blk[offKnots+i] = inf
			}
			for i, kn := range l.Knots {
				if !(kn >= 0) { // negative or NaN: eval's integer compare would mis-order it
					return nil, fmt.Errorf("rqrmi: compile: stage %d submodel %d: knot %v is not a non-negative number", s, j, kn)
				}
				if kn == 0 {
					kn = 0 // −0 compares equal: store +0
				}
				blk[offKnots+i] = kn
			}
			copy(blk[offA:], l.A)
			copy(blk[offB:], l.B)
			c.errs[id] = l.Err
			id++
		}
	}
	c.table = newRoutes(m.Width, m.responsibilities())
	c.flatLows = flattenLows(ix, m.Width)
	return c, nil
}

// Len returns the learned index length.
func (c *Compiled) Len() int { return c.n }

// MaxErr returns the largest final-stage error bound — the compiled plane's
// static worst case, from which the secondary-search probe ceiling derives
// (ProbeBound). Matches Model.MaxErr for the source model.
func (c *Compiled) MaxErr() int {
	last := len(c.stageWidth) - 1
	base := int(c.stageBase[last])
	maxE := 0
	for i := 0; i < int(c.stageWidth[last]); i++ {
		if e := int(c.errs[base+i]); e > maxE {
			maxE = e
		}
	}
	return maxE
}

// ProbeBound converts a maximum prediction error into the worst-case
// secondary-search probe count: locating the entry inside a ±maxErr slice
// (2·maxErr+1 candidates) by the canonical bounded binary search costs
// ⌈log₂(2·maxErr+1)⌉ probes, plus a constant for the boundary checks. This is
// the same ceiling the engine tests assert (core.TestLookupTrace*: probes ≤
// 2 + bitsFor(2·maxErr+1)), and what neurolpm_model_probe_bound reports for
// each shard's live plane.
func ProbeBound(maxErr int) int {
	if maxErr < 0 {
		maxErr = 0
	}
	// ceil(log₂(m)) == bits.Len(m−1); m = 2·maxErr+1 ⇒ m−1 = 2·maxErr.
	return 3 + bits.Len(uint(2*maxErr))
}

// unit maps k to the model's float32 input coordinate — the same arithmetic
// as unitOf (the key's float64 value × the domain's Ldexp scale, rounded to
// float32 once) with the Domain construction hoisted out of the query path.
func (c *Compiled) unit(k keys.Value) float32 {
	return float32((float64(k.Hi)*0x1p64 + float64(k.Lo)) * c.scale)
}

// eval computes submodel id's piecewise-linear value at u. The segment is
// the count of knots strictly below u, taken without a branch: u and every
// stored knot are non-negative floats (or the +Inf pad), whose bit patterns
// order as the numbers do, so knot < u is the sign bit of the integer
// difference of the two patterns — eight subtractions where LUT.eval has a
// scan that leaves on a data-dependent branch. Sorted knots make the count
// the scan's exit position, and the pad never counts (finite u < +Inf).
func (c *Compiled) eval(id int, u float32) float32 {
	blk := (*[blockStride]float32)(c.bank[id<<blockShift:])
	ub := int32(math.Float32bits(u))
	below := func(i int) int { return int(uint32(int32(math.Float32bits(blk[i]))-ub) >> 31) }
	s := below(0) + below(1) + below(2) + below(3) + below(4) + below(5) + below(6) + below(7)
	return blk[offA+s]*u + blk[offB+s]
}

// walk is the stage loop: Model.Predict's routing through the internal
// stages, run only for a key the routing table does not answer — one in a
// fallback cell or outside the domain.
func (c *Compiled) walk(u float32) int {
	cur := 0
	for s := 0; s+1 < len(c.stageWidth); s++ {
		cur = scaleClamp(c.eval(int(c.stageBase[s])+cur, u), int(c.stageWidth[s+1]))
	}
	return cur
}

// Predict runs full RQRMI inference for key k, bit-identical to
// Model.Predict: the routing table's final-stage submodel for k's cell, or
// the stage loop's, then that submodel's evaluation.
func (c *Compiled) Predict(k keys.Value) Prediction {
	u := c.unit(k)
	t, ok := c.table.of(k)
	if !ok {
		t = c.walk(u)
	}
	id := int(c.stageBase[len(c.stageBase)-1]) + t
	return Prediction{Index: scaleClamp(c.eval(id, u), c.n), Err: int(c.errs[id]), Submodel: t}
}

// Block is the one software-pipelining width of the batch path — of
// SearchBlock on both planes and of core's batch staging: enough independent
// keys in flight per step to hide the bounds-array load latency, small enough
// that the per-block state lives in registers and L1. It is the search
// kernel's own lockstep width.
const Block = keys.Block

// PredictBatch runs inference for each key, writing out[i] = Predict(ks[i]).
// A key's inference is a table load and one evaluation, a chain independent
// of the next key's, so a plain loop lets the CPU overlap consecutive keys;
// the stage-by-stage blocks it replaces had a dependent evaluation per
// internal stage to hide. out must have at least len(ks) entries.
func (c *Compiled) PredictBatch(ks []keys.Value, out []Prediction) {
	_ = out[:len(ks)]
	for i, k := range ks {
		out[i] = c.Predict(k)
	}
}
