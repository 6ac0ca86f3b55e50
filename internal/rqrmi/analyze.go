package rqrmi

import (
	"neurolpm/internal/keys"
)

// This file implements the analytical machinery that makes RQRMI queries
// provably correct (paper §5.2): because every compiled submodel is
// piecewise-linear with at most nine segments, both the routing performed by
// internal stages and the prediction error of final-stage submodels can be
// computed *exactly*, for every possible input, by examining only segment
// knots and range boundaries — no sweep over the input domain is needed.
//
// All evaluations below run the same arithmetic as query-time inference —
// float32 (LUT.eval + scaleClamp) for the reference/compiled planes,
// int32 fixed-point (Quantized.eval + clampStage) for the quantized plane —
// so the derived responsibilities and error bounds hold for the deployed
// engine bit-for-bit. The traversal logic (knot splitting, monotone
// transition search, endpoint maximization) is shared via partitionBy /
// errorBoundBy; only the split and evaluate closures differ per plane.

// interval is an inclusive key interval [Lo, Hi].
type interval struct {
	Lo, Hi keys.Value
}

// splitAtKnots partitions [iv.Lo, iv.Hi] into sub-intervals that each map
// into a single linear segment of the LUT. The split points are the largest
// keys whose unit coordinate does not exceed each knot — exactly the
// boundary LUT.eval uses (u > knot advances to the next segment).
func splitAtKnots(width int, l *LUT, iv interval) []interval {
	pieces := make([]interval, 0, len(l.Knots)+1)
	lo := iv.Lo
	for _, kn := range l.Knots {
		if unitOf(width, iv.Hi) <= kn {
			break // the rest of the interval is below this knot
		}
		if unitOf(width, lo) > kn {
			continue // this knot is below the remaining interval
		}
		// Largest key in [lo, iv.Hi] with u(key) ≤ kn. u is monotone
		// non-decreasing, so this is a plain binary search.
		a, b := lo, iv.Hi
		for a.Less(b) {
			mid := a.Mid(b).Inc() // upper mid so the loop converges upward
			if unitOf(width, mid) <= kn {
				a = mid
			} else {
				b = mid.Dec()
			}
		}
		pieces = append(pieces, interval{Lo: lo, Hi: a})
		lo = a.Inc()
	}
	pieces = append(pieces, interval{Lo: lo, Hi: iv.Hi})
	return pieces
}

// partitionBy is the arithmetic-neutral core of responsibility routing:
// split carves an interval into pieces that each lie within one linear
// segment of whatever evaluator route wraps, and route maps a key to its
// next-stage slot. The only property required is that route is monotone
// (non-strictly — integer plateaus are fine) within each split piece; the
// transition search below tolerates plateaus by treating any overshoot
// past rA in the search direction as still-rA.
func partitionBy(split func(interval) []interval, route func(keys.Value) int, n int, ivs []interval) [][]interval {
	out := make([][]interval, n)
	assign := func(slot int, iv interval) {
		// Merge with the previous interval when contiguous.
		if m := len(out[slot]); m > 0 && out[slot][m-1].Hi.Inc() == iv.Lo {
			out[slot][m-1].Hi = iv.Hi
			return
		}
		out[slot] = append(out[slot], iv)
	}
	for _, iv := range ivs {
		for _, piece := range split(iv) {
			a := piece.Lo
			rA := route(a)
			for {
				rB := route(piece.Hi)
				if rA == rB {
					assign(rA, interval{Lo: a, Hi: piece.Hi})
					break
				}
				// Monotone on the piece: find the largest key still
				// routed to rA.
				lo, hi := a, piece.Hi
				ascending := rB > rA
				for lo.Less(hi) {
					mid := lo.Mid(hi).Inc()
					r := route(mid)
					same := r == rA
					if !same && ((ascending && r < rA) || (!ascending && r > rA)) {
						same = true // plateau safety (quantized plateaus are real)
					}
					if same {
						lo = mid
					} else {
						hi = mid.Dec()
					}
				}
				assign(rA, interval{Lo: a, Hi: lo})
				a = lo.Inc()
				rA = route(a)
			}
		}
	}
	return out
}

// partition splits the given responsibility intervals of a submodel by the
// slot its output routes to (slot = scaleClamp(eval(u), n)) and returns the
// intervals owned by each of the n next-stage submodels, in the float32
// reference arithmetic.
func partition(width int, l *LUT, n int, ivs []interval) [][]interval {
	return partitionBy(
		func(iv interval) []interval { return splitAtKnots(width, l, iv) },
		func(k keys.Value) int { return scaleClamp(l.eval(unitOf(width, k)), n) },
		n, ivs)
}

// descend is one step of responsibility propagation, the one Train, Verify,
// Compile and Quantized.analyze all take: resp[j] are the intervals stage
// submodel j answers for, part(j, resp[j]) splits them by the next-stage slot
// they route to, and the result gathers each of the n slots' intervals.
func descend(resp [][]interval, n int, part func(j int, ivs []interval) [][]interval) [][]interval {
	next := make([][]interval, n)
	for j, ivs := range resp {
		if len(ivs) == 0 {
			continue
		}
		for t, p := range part(j, ivs) {
			next[t] = append(next[t], p...)
		}
	}
	return next
}

// domainResp is the first stage's responsibility: the whole width-bit domain.
func domainResp(width int) [][]interval {
	return [][]interval{{{Lo: keys.Value{}, Hi: keys.NewDomain(width).Max()}}}
}

// responsibilities carries the whole domain down the model's internal stages
// in the float32 reference arithmetic: resp[t] is every key routed to
// final-stage submodel t. Verify holds the bounds to them and Compile builds
// its routing table from them.
func (m *Model) responsibilities() [][]interval {
	resp := domainResp(m.Width)
	for s := 0; s+1 < len(m.Stages); s++ {
		n := len(m.Stages[s+1])
		resp = descend(resp, n, func(j int, ivs []interval) [][]interval {
			return partition(m.Width, &m.Stages[s][j], n, ivs)
		})
	}
	return resp
}

// errorBoundBy is the arithmetic-neutral core of the error-bound
// computation: the exact maximum of |pred − true index| over every key in
// ivs. Within one split piece pred is monotone while the true index is a
// step function changing only at entry lower bounds, so the maximum over
// each (piece ∩ entry) sub-piece is attained at its two endpoints.
func errorBoundBy(split func(interval) []interval, pred func(keys.Value) int, ix Index, ivs []interval) int32 {
	n := ix.Len()
	maxErr := 0
	note := func(k keys.Value, truth int) {
		d := pred(k) - truth
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
	}
	for _, iv := range ivs {
		for _, piece := range split(iv) {
			r := find(ix, piece.Lo)
			start := piece.Lo
			for {
				end := piece.Hi
				if r+1 < n && !piece.Hi.Less(ix.Low(r+1)) {
					end = ix.Low(r + 1).Dec()
				}
				note(start, r)
				note(end, r)
				if end == piece.Hi {
					break
				}
				start = ix.Low(r + 1)
				r++
			}
		}
	}
	return int32(maxErr)
}

// errorBound computes the exact maximum of |prediction − true index| over
// every key in the submodel's responsibility, in the float32 reference
// arithmetic (Train stores this as LUT.Err).
func errorBound(width int, l *LUT, ix Index, ivs []interval) int32 {
	n := ix.Len()
	return errorBoundBy(
		func(iv interval) []interval { return splitAtKnots(width, l, iv) },
		func(k keys.Value) int { return scaleClamp(l.eval(unitOf(width, k)), n) },
		ix, ivs)
}

// splitAtKnots is the quantized analogue of the float splitAtKnots: it
// partitions iv into pieces that each map into a single linear segment of
// submodel id's int16 block. Because the quantized segment select compares
// the key's top 15 bits against Q0.15 knots, each boundary — the largest
// key whose top-15-bit coordinate does not exceed the knot — is computed
// directly (no binary search): for width ≥ 15 it is (knot+1)·2^(width−15)−1,
// below 15 the knot truncated back down to the key width. The knotMax
// padding never splits anything (uh ≤ knotMax means the break fires first),
// exactly like the float plane's +Inf pads.
func (q *Quantized) splitAtKnots(id int, iv interval) []interval {
	knots := q.bank[id<<blockShift : id<<blockShift+padKnots]
	pieces := make([]interval, 0, padKnots+1)
	lo := iv.Lo
	uHi := q.unit(iv.Hi) >> (unitBits - knotBits)
	for _, kn := range knots {
		knq := int32(kn)
		if uHi <= knq {
			break // the rest of the interval is below this knot
		}
		if q.unit(lo)>>(unitBits-knotBits) > knq {
			continue // this knot is below the remaining interval
		}
		var b keys.Value
		if q.width >= knotBits {
			b = keys.FromUint64(uint64(knq) + 1).Shl(uint(q.width - knotBits)).Dec()
		} else {
			b = keys.FromUint64(uint64(knq) >> uint(knotBits-q.width))
		}
		pieces = append(pieces, interval{Lo: lo, Hi: b})
		lo = b.Inc()
	}
	pieces = append(pieces, interval{Lo: lo, Hi: iv.Hi})
	return pieces
}

// analyze recomputes every final-stage error bound in the quantized
// arithmetic and builds the plane's routing table: the same responsibility
// propagation as Model.Verify — full domain through partitionBy stage by
// stage, then errorBoundBy per final submodel — but with every evaluation
// running the deployed integer hot path (unit, eval, clampStage). This is the
// CLAUDE.md contract applied to the new arithmetic: bounds are only valid for
// the arithmetic that computed them, so the quantized plane carries its own,
// and routes by its own partition.
func (q *Quantized) analyze(ix Index) {
	resp := domainResp(q.width)
	last := len(q.stages) - 1
	for s := 0; s < last; s++ {
		st := &q.stages[s]
		n := int(q.stages[s+1].width)
		resp = descend(resp, n, func(j int, ivs []interval) [][]interval {
			id := int(st.base) + j
			return partitionBy(
				func(iv interval) []interval { return q.splitAtKnots(id, iv) },
				func(k keys.Value) int { return clampStage(st, q.eval(st, id, q.unit(k)), n) },
				n, ivs)
		})
	}
	st := &q.stages[last]
	for j := 0; j < int(st.width); j++ {
		id := int(st.base) + j
		if len(resp[j]) == 0 {
			q.errs[id] = 0 // unreachable submodel: no key routes here
			continue
		}
		q.errs[id] = errorBoundBy(
			func(iv interval) []interval { return q.splitAtKnots(id, iv) },
			func(k keys.Value) int { return clampStage(st, q.eval(st, id, q.unit(k)), q.n) },
			ix, resp[j])
	}
	q.table = newRoutes(q.width, resp)
}

// Verify exhaustively re-checks the model's error bounds against the index
// at every entry boundary and both endpoints of every final-stage
// responsibility piece, returning false with a witness key on violation.
// It recomputes responsibilities from the stored LUTs, so it validates the
// whole inference chain, not just the stored Err values.
func (m *Model) Verify(ix Index) (ok bool, witness keys.Value) {
	width := m.Width
	stageResp := m.responsibilities()
	last := len(m.Stages) - 1
	for j := range m.Stages[last] {
		l := &m.Stages[last][j]
		check := func(k keys.Value) bool {
			truth := find(ix, k)
			p := scaleClamp(l.eval(unitOf(width, k)), ix.Len())
			d := p - truth
			if d < 0 {
				d = -d
			}
			return d <= int(l.Err)
		}
		for _, iv := range stageResp[j] {
			for _, piece := range splitAtKnots(width, l, iv) {
				r := find(ix, piece.Lo)
				start := piece.Lo
				for {
					end := piece.Hi
					if r+1 < ix.Len() && !piece.Hi.Less(ix.Low(r+1)) {
						end = ix.Low(r + 1).Dec()
					}
					if !check(start) {
						return false, start
					}
					if !check(end) {
						return false, end
					}
					if end == piece.Hi {
						break
					}
					start = ix.Low(r + 1)
					r++
				}
			}
		}
	}
	return true, keys.Value{}
}
