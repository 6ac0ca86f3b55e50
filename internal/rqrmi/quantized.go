package rqrmi

// The quantized plane: an int16/int32 fixed-point re-encoding of the compiled
// plane's interleaved coefficient bank, evaluated with integer shift-add
// alignment and no float operations. It is an analysis artifact, like
// Model.Predict: no engine lookup runs on it. Its inference is slower than the
// compiled plane's and its error bounds are looser (DESIGN.md §10), so the
// compiled float32 plane is the one arithmetic the engine deploys.
//
// TableNet-style quantized inference (PAPERS.md) replaces FP multipliers
// with table lookups plus shift-add accumulation. The software analogue
// here keeps the compiled plane's block layout — same offsets, same
// submodel-id<<blockShift addressing — but stores int16 words instead of
// float32, halving every coefficient block from two cache lines to one:
//
//	[ 0.. 7] knots, Q0.15, padded with unitMax (never exceeded by u>>15)
//	[ 8..16] A mantissas, 15-bit, per-stage shared exponent expA
//	[17..25] B mantissas, 15-bit, per-stage shared exponent expB
//	[26..31] unused (pads the block to a power of two)
//
// Number formats (DESIGN.md §10):
//
//   - input u: Q0.30 — the top 30 bits of the key, so the input granularity
//     (2^(width−30) keys) is finer than float32's 24-bit mantissa for every
//     width ≥ 25, and error bounds do not inflate at paper scale;
//   - segment select: u>>15 against Q0.15 int16 knots — the same
//     "count knots strictly below" scan as the reference and compiled
//     planes, in one int16 cache line;
//   - MAC: y = (a_q·u)>>shA + (b_q<<shBL)>>shBR, with per-stage shifts
//     derived from the shared exponents so the sum lands in a common
//     Q?.Fy accumulator. The a_q·u product widens through int64 (a single
//     machine multiply stands in for the hardware's shift-add tree); every
//     stored word and the accumulator are ≤ 32 bits;
//   - slot scaling: scaleClamp's float multiply becomes
//     (y·n)>>Fy in int64, with the same ≤0 / ≥1 / top-edge clamps.
//
// Correctness contract (CLAUDE.md): the float error bounds do NOT transfer —
// rounding the coefficients moves every prediction. compileQuantized
// therefore re-runs the responsibility/error analysis of analyze.go in
// exactly this integer arithmetic (same eval, same clamp, same unit), so
// the stored bounds cover the deployed quantized plane for every key:
// bound-inclusion rather than bit-identity with the float planes. The
// bounded secondary search then lands on exactly the true index, so
// everything downstream (bucket fetch, action resolve) is unchanged.
// FuzzQuantizedVsModel and TestQuantizedBoundInclusion enforce this
// mechanically.

import (
	"fmt"
	"math"

	"neurolpm/internal/keys"
)

const (
	// unitBits is the fixed-point input precision: u is the key's top
	// unitBits bits, Q0.30 in [0, unitMax].
	unitBits = 30
	unitMax  = 1<<unitBits - 1

	// knotBits is the segment-select precision: knots store the top
	// knotBits of the unit coordinate as int16, compared against u>>15.
	knotBits = 15
	knotMax  = 1<<knotBits - 1

	// mantBits is the signed coefficient mantissa width; mantissas are
	// clamped to ±mantMax so they always fit int16.
	mantBits = 15
	mantMax  = 1<<mantBits - 1

	// accBits caps the accumulator magnitude: per-stage Fy is chosen so
	// |a·u·2^Fy| and |b·2^Fy| each stay ≤ 2^accBits, keeping their sum
	// within int32 with a sign bit and a carry bit to spare.
	accBits = 28
)

// Quantized is the fixed-point plane. It is immutable after compileQuantized
// and safe for concurrent use.
type Quantized struct {
	width int
	n     int // entries in the learned index

	// Saturation bound for out-of-domain keys (the quantized analogue of
	// the compiled search's saturating key): any key above the domain max
	// maps to maxU — the domain max's own unit coordinate — so it aliases
	// a key the bound analysis covered instead of landing on an
	// unanalyzed input.
	maxHi, maxLo uint64
	maxU         int32
	shl, shr     uint // unit() shift, selected by width

	// stages holds the per-stage layout and fixed-point parameters in one
	// 16-byte record, so the hot path pays a single bounds-checked load
	// per stage instead of one per parameter slice.
	stages []qStage

	bank []int16 // blockStride int16 words per submodel: knots | A | B
	errs []int32 // error bound per submodel, recomputed in this arithmetic

	table routes // routing table from this arithmetic's own partition (route.go)
	// flatLows is the devirtualized bounds, shared with the Compiled it was
	// made from. Its Search is Compiled.Search bounded by this plane's own
	// error bound carried in p; because that bound covers the quantized
	// prediction for every key, the search lands on exactly the true index.
	flatLows
}

// qStage is one stage's submodel layout plus its fixed-point parameters,
// all derived from the stage's shared coefficient exponents (expA from
// max|A|, expB from max|B|): fy output fraction bits, one = 1<<fy (the
// clamp threshold), shA the product alignment shift, shBL/shBR the
// intercept alignment (exactly one is non-zero).
type qStage struct {
	base  int32 // global id of the stage's first submodel
	width int32 // submodels in this stage
	one   int32
	fy    uint8
	shA   uint8
	shBL  uint8
	shBR  uint8
}

// Quantize compiles the fixed-point plane for the model and index c was
// compiled from;
// the result searches c's flat bounds instead of building a second copy.
func (c *Compiled) Quantize(m *Model, ix Index) (*Quantized, error) {
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("rqrmi: quantize: %w", err)
	}
	if m.N != c.n || m.Width != c.width || ix.Len() != c.n {
		return nil, fmt.Errorf("rqrmi: quantize: model (width %d, N %d) or index (N %d) is not the compiled plane's (width %d, N %d)",
			m.Width, m.N, ix.Len(), c.width, c.n)
	}
	return compileQuantized(m, ix, c.flatLows), nil
}

// compileQuantized encodes a validated model over ix, whose flat bounds are
// lows.
func compileQuantized(m *Model, ix Index, lows flatLows) *Quantized {
	total := 0
	for _, stage := range m.Stages {
		total += len(stage)
	}
	dom := keys.NewDomain(m.Width)
	q := &Quantized{
		width:  m.Width,
		n:      m.N,
		maxHi:  dom.Max().Hi,
		maxLo:  dom.Max().Lo,
		stages: make([]qStage, len(m.Stages)),
		bank:   make([]int16, total*blockStride),
		errs:   make([]int32, total),
	}
	if m.Width <= unitBits {
		q.shl = uint(unitBits - m.Width)
		q.maxU = int32(dom.Max().Lo << q.shl)
	} else {
		q.shr = uint(m.Width - unitBits)
		q.maxU = unitMax
	}

	id := 0
	for s, stage := range m.Stages {
		st := &q.stages[s]
		st.base = int32(id)
		st.width = int32(len(stage))

		// Shared per-stage exponents: the smallest power of two covering
		// the stage's largest |coefficient|, clamped to [0, accBits].
		// The upper clamp saturates absurdly large coefficients to the
		// mantissa limit (the function stays linear and monotone per
		// segment, and the bound analysis sees the saturated plane, so
		// bounds stay exact); the lower clamp keeps fy ≤ accBits so the
		// clamp threshold fits int32.
		var maxA, maxB float64
		for j := range stage {
			for _, v := range stage[j].A {
				maxA = math.Max(maxA, math.Abs(float64(v)))
			}
			for _, v := range stage[j].B {
				maxB = math.Max(maxB, math.Abs(float64(v)))
			}
		}
		expA, expB := coeffExp(maxA), coeffExp(maxB)

		// fy: as many output fraction bits as keep both MAC terms within
		// ±2^accBits — see the overflow audit in DESIGN.md §10.
		fy := accBits - expA
		if expB > expA {
			fy = accBits - expB
		}
		if fy < 0 {
			fy = 0
		}
		st.fy = uint8(fy)
		st.one = 1 << fy
		// a·u: the Q0.30 product carries mantBits+unitBits fraction bits
		// scaled by 2^(expA−mantBits); aligning to fy fraction bits
		// shifts right by (mantBits+unitBits) − expA − fy ∈ [17, 45].
		st.shA = uint8(mantBits + unitBits - expA - fy)
		// b: stored with mantBits fraction bits scaled by 2^(expB−mantBits);
		// aligning to fy shifts left by fy+expB−mantBits ≤ accBits−mantBits,
		// or right when negative.
		if sh := fy + expB - mantBits; sh >= 0 {
			st.shBL = uint8(sh)
		} else {
			st.shBR = uint8(-sh)
		}

		for j := range stage {
			l := &stage[j]
			blk := q.bank[id<<blockShift : (id+1)<<blockShift]
			for i := range blk[offKnots : offKnots+padKnots] {
				blk[offKnots+i] = knotMax
			}
			for i, kn := range l.Knots {
				blk[offKnots+i] = quantKnot(kn)
			}
			for i, v := range l.A {
				blk[offA+i] = quantMant(v, expA)
			}
			for i, v := range l.B {
				blk[offB+i] = quantMant(v, expB)
			}
			id++
		}
	}

	q.flatLows = lows
	q.analyze(ix)
	return q
}

// coeffExp returns the shared exponent for a stage's coefficient group:
// the e with max|v| < 2^e (Frexp), clamped to [0, accBits]. Non-finite
// maxima take the upper clamp (their mantissas saturate).
func coeffExp(max float64) int {
	if max == 0 {
		return 0
	}
	if math.IsInf(max, 0) || math.IsNaN(max) {
		return accBits
	}
	_, e := math.Frexp(max)
	if e < 0 {
		return 0
	}
	if e > accBits {
		return accBits
	}
	return e
}

// quantMant rounds v to a mantBits-bit mantissa under the shared exponent:
// round-to-nearest of v·2^(mantBits−exp), clamped to ±mantMax.
func quantMant(v float32, exp int) int16 {
	r := math.Round(math.Ldexp(float64(v), mantBits-exp))
	if !(r < mantMax) { // catches +Inf and NaN
		if math.IsNaN(r) {
			return 0
		}
		return mantMax
	}
	if r < -mantMax {
		return -mantMax
	}
	return int16(r)
}

// quantKnot rounds a float32 knot to Q0.15, clamped to int16. +Inf (the
// compiled plane's padding) and NaN map to knotMax, which the scan can
// never exceed — the same "stop here" behavior as the reference's u > knot
// compare against +Inf or NaN.
func quantKnot(kn float32) int16 {
	r := math.Round(math.Ldexp(float64(kn), knotBits))
	if !(r < knotMax) {
		return knotMax
	}
	if r < math.MinInt16 {
		return math.MinInt16
	}
	return int16(r)
}

// Len returns the learned index length.
func (q *Quantized) Len() int { return q.n }

// unit maps k to the Q0.30 input coordinate: the key's top unitBits bits,
// saturating at the domain max's coordinate for out-of-domain keys — any
// such key then predicts and searches exactly like dom.Max(), which the
// bound analysis covers, so bound-inclusion holds for every representable
// key, in or out of domain.
func (q *Quantized) unit(k keys.Value) int32 {
	if k.Hi > q.maxHi || (k.Hi == q.maxHi && k.Lo > q.maxLo) {
		return q.maxU
	}
	switch {
	case q.width <= unitBits:
		return int32(k.Lo << q.shl)
	case q.width <= 64:
		return int32(k.Lo >> q.shr)
	case q.shr >= 64:
		return int32(k.Hi >> (q.shr - 64))
	default:
		return int32(k.Hi<<(64-q.shr) | k.Lo>>q.shr)
	}
}

// eval computes submodel id's piecewise-linear value at u in stage st's
// fixed-point format: the compiled plane's count-knots-below segment select
// (over int16 knots and u's top 15 bits), then the shift-add MAC. The select
// is branchless — knots are sorted (quantization rounds monotonically, pads
// are knotMax), so the first knot ≥ uh equals the count of knots < uh, and
// eight sign-bit adds replace a scan's data-dependent exit — the form
// Compiled.eval has too, on float bit patterns. All shifts are arithmetic, so alignment floors toward −∞
// consistently and the per-segment map stays monotone — the property the
// bound analysis relies on.
func (q *Quantized) eval(st *qStage, id int, u int32) int32 {
	blk := (*[blockStride]int16)(q.bank[id<<blockShift:])
	uh := u >> (unitBits - knotBits)
	seg := int(uint32(int32(blk[0])-uh)>>31) +
		int(uint32(int32(blk[1])-uh)>>31) +
		int(uint32(int32(blk[2])-uh)>>31) +
		int(uint32(int32(blk[3])-uh)>>31) +
		int(uint32(int32(blk[4])-uh)>>31) +
		int(uint32(int32(blk[5])-uh)>>31) +
		int(uint32(int32(blk[6])-uh)>>31) +
		int(uint32(int32(blk[7])-uh)>>31)
	prod := int64(blk[offA+seg]) * int64(u)
	return int32(prod>>st.shA) + (int32(blk[offB+seg])<<st.shBL)>>st.shBR
}

// clampStage maps a stage's fixed-point output y to an integer slot in
// [0, n) — scaleClamp with the float multiply replaced by (y·n)>>fy.
// Like the float arithmetic, it is part of the inference contract: the
// bound analysis runs this exact code.
func clampStage(st *qStage, y int32, n int) int {
	if y <= 0 {
		return 0
	}
	if y >= st.one {
		return n - 1
	}
	i := int(int64(y) * int64(n) >> st.fy)
	if i >= n { // unreachable (y < one ⇒ i < n), kept to mirror scaleClamp
		i = n - 1
	}
	return i
}

// walk is the quantized stage loop, run only for fallback cells and
// out-of-domain keys.
func (q *Quantized) walk(u int32) int {
	cur := 0
	for s := 0; s+1 < len(q.stages); s++ {
		st := &q.stages[s]
		cur = clampStage(st, q.eval(st, int(st.base)+cur, u), int(q.stages[s+1].width))
	}
	return cur
}

// Predict runs full RQRMI inference for key k in the fixed-point
// arithmetic, returning the quantized plane's own error bound. It routes as
// Compiled.Predict does, by this plane's own table.
func (q *Quantized) Predict(k keys.Value) Prediction {
	u := q.unit(k)
	t, ok := q.table.of(k)
	if !ok {
		t = q.walk(u)
	}
	st := &q.stages[len(q.stages)-1]
	id := int(st.base) + t
	return Prediction{Index: clampStage(st, q.eval(st, id, u), q.n), Err: int(q.errs[id]), Submodel: t}
}
