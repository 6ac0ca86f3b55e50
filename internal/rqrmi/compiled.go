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
// Index's lower bounds are copied into a flat []uint64 (width ≤ 64, where
// every bound's high limb is zero) or []keys.Value, so the bounded secondary
// search runs keys.SearchLows64/SearchLows — or, for a block of keys,
// SearchBlock's lockstep form of the same loop — with zero interface calls
// and zero allocations.
//
// Bit-identity contract (CLAUDE.md): analyze.go computes error bounds by
// running LUT.Eval + scaleClamp + unitOf; the compiled plane must reproduce
// that arithmetic exactly or the bounds silently stop covering the deployed
// engine. Concretely:
//
//   - unit coordinate: same float64 multiply against the same Ldexp scale
//     keys.Domain.ToUnit uses, rounded to float32 once (cached, not
//     recomputed per key — caching changes cost, not value);
//   - segment select: knots are non-decreasing (Model.Validate), so the
//     reference scan "first s with u ≤ Knots[s]" equals the count of knots
//     with u > knot; +Inf padding never counts. The count is taken on the
//     IEEE bit patterns as integers, which order exactly as the floats do
//     when neither is negative or NaN: u is never either (unit's product of
//     non-negative finite factors), and Compile refuses a model with such a
//     knot and stores −0 as +0, so the precondition is enforced, not assumed;
//   - MAC: the same float32 A[s]*u + B[s] on the same coefficients;
//   - search: keys.SearchLows* share the canonical BoundedSearch loop, so
//     probe sequences and counts match the reference exactly; SearchBlock
//     runs that loop for a block of keys a probe at a time and is held to
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
	// padKnots/padSegs are the per-submodel field sizes: MaxSegments
	// segments need MaxSegments−1 interior knots (§5.2.2's 8-hidden-ReLU
	// bound).
	padKnots = MaxSegments - 1
	padSegs  = MaxSegments

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

	flatLows
}

// flatLows is an index's lower bounds, devirtualized: exactly one of
// lows64/lows is non-nil. Range/bucket bounds never change after build
// (deletions re-own ranges, they do not move boundaries), so the copy cannot
// go stale — and a Compiled and the Quantized made from it share one.
type flatLows struct {
	lows64 []uint64
	lows   []keys.Value
}

func flattenLows(ix Index, width int) flatLows {
	var f flatLows
	if width <= 64 {
		f.lows64 = make([]uint64, ix.Len())
		for i := range f.lows64 {
			f.lows64[i] = ix.Low(i).Lo
		}
	} else {
		f.lows = make([]keys.Value, ix.Len())
		for i := range f.lows {
			f.lows[i] = ix.Low(i)
		}
	}
	return f
}

func (f *flatLows) bytes() int { return 8*len(f.lows64) + 16*len(f.lows) }

// window is the search window of prediction p: [Index−Err, Index+Err] clamped
// to the index, as Model.Search clamps it.
func (f *flatLows) window(p Prediction) (lo, hi int) {
	return max(p.Index-p.Err, 0), min(p.Index+p.Err, len(f.lows64)+len(f.lows)-1)
}

// limb is k on the one-limb plane: an out-of-domain key, above every 64-bit
// bound, saturates so the one-limb compare agrees with the reference 128-bit
// Less.
func limb(k keys.Value) uint64 {
	if k.Hi != 0 {
		return ^uint64(0)
	}
	return k.Lo
}

// searchWithin is the bounded secondary search over the flat bounds,
// bit-identical to Model.Search on the source index (same clamping, same
// canonical loop, same probe counts).
func (f *flatLows) searchWithin(k keys.Value, p Prediction) (idx, probes int) {
	lo, hi := f.window(p)
	if f.lows64 != nil {
		return keys.SearchLows64(f.lows64, limb(k), lo, hi)
	}
	return keys.SearchLows(f.lows, k, lo, hi)
}

// SearchBlock is Search for a block of at most Block keys, idx[i], probes[i]
// = Search(ks[i], ps[i]), run the way the paper's pool of search FSMs runs
// (§6.2): every key advances one probe per round, for as many rounds as the
// widest window needs, so the block's bound loads are outstanding together
// instead of one key's chain after another's. A round is the canonical loop's
// body under keys.SearchLows*'s borrow mask; a key whose window has closed
// (lo ≥ hi) keeps probing its own lo, which moves nothing, and a probe is
// counted only while lo < hi, so index and count are Search's exactly. ps
// must be predictions over this index (0 ≤ Index < Len, Err ≥ 0).
func (f *flatLows) SearchBlock(ks []keys.Value, ps []Prediction, idx, probes []int) {
	var his [Block]int
	var kk [Block]uint64
	hs, ps, idx, probes := his[:len(ks)], ps[:len(ks)], idx[:len(ks)], probes[:len(ks)]
	widest := 0
	for i, p := range ps {
		idx[i], hs[i] = f.window(p)
		probes[i], kk[i] = 0, limb(ks[i])
		widest = max(widest, hs[i]-idx[i])
	}
	for r := bits.Len(uint(widest)); r > 0; r-- {
		for i, hi := range hs {
			lo := idx[i]
			mid := int(uint(lo+hi+1) / 2)       // lo+hi+1 ≥ 0: a closed window's hi is lo−1 at least
			probes[i] += int(uint(lo-hi) >> 63) // 1 while lo < hi
			var below uint64
			if f.lows64 != nil {
				_, below = bits.Sub64(kk[i], f.lows64[mid], 0)
			} else {
				b := f.lows[mid]
				_, below = bits.Sub64(ks[i].Lo, b.Lo, 0)
				_, below = bits.Sub64(ks[i].Hi, b.Hi, below)
			}
			m := -int(below) // all ones: the key is below the bound
			hs[i] = hi ^ (hi^(mid-1))&m
			idx[i] = lo ^ (lo^mid)&^m
		}
	}
}

// Compile flattens a trained model and its learned index into the compiled
// plane. The model must be structurally valid (Train/ReadModel output) and
// trained over exactly this index; both are checked because a mismatch would
// silently void the error bounds.
func Compile(m *Model, ix Index) (*Compiled, error) {
	if err := m.Validate(); err != nil {
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
	c.flatLows = flattenLows(ix, m.Width)
	return c, nil
}

// Width returns the key bit width.
func (c *Compiled) Width() int { return c.width }

// Len returns the learned index length.
func (c *Compiled) Len() int { return c.n }

// SizeBytes is the compiled plane's memory footprint: the padded coefficient
// banks plus the flat bounds copy. (The bounds mirror SRAM the hardware
// already holds once; software pays it twice for devirtualization.)
func (c *Compiled) SizeBytes() int { return c.BankBytes() + c.bytes() }

// BankBytes is the coefficient-bank footprint alone (float32 banks + the
// per-submodel error bounds) — the baseline the quantized plane's shrink
// ratio is stated against (TestQuantizedBankShrink).
func (c *Compiled) BankBytes() int {
	return 4 * (len(c.bank) + len(c.errs))
}

// MaxErr returns the largest final-stage error bound — the compiled plane's
// static worst case, from which the secondary-search probe ceiling derives
// (telemetry.ProbeBound). Matches Model.MaxErr for the source model.
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

// unit maps k to the model's float32 input coordinate — the same arithmetic
// as unitOf (keys.Value.Float64 × the domain's Ldexp scale, rounded to
// float32 once) with the Domain construction hoisted out of the query path.
func (c *Compiled) unit(k keys.Value) float32 {
	return float32((float64(k.Hi)*0x1p64 + float64(k.Lo)) * c.scale)
}

// eval computes submodel id's piecewise-linear value at u. The segment is
// the count of knots strictly below u, taken without a branch: u and every
// stored knot are non-negative floats (or the +Inf pad), whose bit patterns
// order as the numbers do, so knot < u is the sign bit of the integer
// difference of the two patterns — eight subtractions where LUT.Eval has a
// scan that leaves on a data-dependent branch. Sorted knots make the count
// the scan's exit position, and the pad never counts (finite u < +Inf).
func (c *Compiled) eval(id int, u float32) float32 {
	blk := (*[blockStride]float32)(c.bank[id<<blockShift:])
	ub := int32(math.Float32bits(u))
	below := func(i int) int { return int(uint32(int32(math.Float32bits(blk[i]))-ub) >> 31) }
	s := below(0) + below(1) + below(2) + below(3) + below(4) + below(5) + below(6) + below(7)
	return blk[offA+s]*u + blk[offB+s]
}

// Predict runs full RQRMI inference for key k, bit-identical to
// Model.Predict.
func (c *Compiled) Predict(k keys.Value) Prediction {
	u := c.unit(k)
	cur := 0
	last := len(c.stageWidth) - 1
	for s := 0; s < last; s++ {
		y := c.eval(int(c.stageBase[s])+cur, u)
		cur = scaleClamp(y, int(c.stageWidth[s+1]))
	}
	id := int(c.stageBase[last]) + cur
	y := c.eval(id, u)
	return Prediction{Index: scaleClamp(y, c.n), Err: int(c.errs[id]), Submodel: cur}
}

// Block is the one software-pipelining width of the batch path — of
// PredictBatch and SearchBlock on both planes and of core's batch staging:
// enough independent keys in flight per step to hide the coefficient-bank and
// bounds-array load latency, small enough that the per-block state lives in
// registers and L1.
const Block = 16

// PredictBatch runs inference for each key, writing out[i] = Predict(ks[i]).
// Keys are processed in blocks of Block, stage-by-stage: within one
// stage the block's evaluations are independent, so the CPU overlaps their
// coefficient loads instead of serializing whole per-key inference chains.
// out must have at least len(ks) entries.
func (c *Compiled) PredictBatch(ks []keys.Value, out []Prediction) {
	_ = out[:len(ks)]
	last := len(c.stageWidth) - 1
	var us [Block]float32
	var cur [Block]int32
	for start := 0; start < len(ks); start += Block {
		n := min(len(ks)-start, Block)
		blk := ks[start : start+n]
		ub, cb := us[:n], cur[:n]
		for i := range ub {
			ub[i] = c.unit(blk[i])
			cb[i] = 0
		}
		for s := 0; s < last; s++ {
			base := int(c.stageBase[s])
			w := int(c.stageWidth[s+1])
			for i := range ub {
				cb[i] = int32(scaleClamp(c.eval(base+int(cb[i]), ub[i]), w))
			}
		}
		base := int(c.stageBase[last])
		ob := out[start : start+n]
		for i := range ob {
			id := base + int(cb[i])
			ob[i] = Prediction{
				Index:    scaleClamp(c.eval(id, ub[i]), c.n),
				Err:      int(c.errs[id]),
				Submodel: int(cb[i]),
			}
		}
	}
}

// Search runs the bounded secondary search over the flat bounds copy,
// bit-identical to Model.Search on the source index (same clamping, same
// canonical loop, same probe counts).
func (c *Compiled) Search(k keys.Value, p Prediction) (idx, probes int) {
	return c.searchWithin(k, p)
}

// Lookup is inference plus bounded search: the true index of the entry
// containing k and the probe count, equal to Model.Lookup on the source
// index.
func (c *Compiled) Lookup(k keys.Value) (idx, probes int) {
	return c.Search(k, c.Predict(k))
}
