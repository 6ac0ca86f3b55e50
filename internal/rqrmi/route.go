package rqrmi

// The routing table: one load stands in for RQRMI's internal stages.
//
// The internal stages of the hierarchy do one thing, pick the final-stage
// submodel that predicts a key (paper §5.2), and the responsibility analysis
// (analyze.go) already knows that choice exactly for every key of the domain:
// it is the set of intervals each final-stage submodel answers for, the sets
// every error bound is computed over. Indexing those intervals by the key's
// top bits gives a table whose entry for most keys *is* the routing decision
// — TableNet's move (PAPERS.md), a table in place of arithmetic, with
// exactness taken from the bound analysis instead of from quantisation.
//
// A cell of the table is every key sharing one value of the top
// min(routeBits, width) bits. A cell lying wholly inside one run of a
// final-stage submodel's responsibility stores that submodel; a cell that a
// transition between two submodels falls inside stores routeFallback, and its
// keys run the internal stages as before. The final responsibilities tile the
// domain, so there is at most one fallback cell per transition: 63 of 4 096
// for the benchmark's 1/4/64 model, holding 3.9 % of its Zipf keys and 1.5 %
// of its uniform ones.
//
// Exactness: a key in an assigned cell lies in submodel t's responsibility,
// which is by construction the set of keys the stage loop routes to t — the
// analysis runs the plane's own arithmetic, float32 for Compiled and int32 for
// Quantized, each table built from its own plane's partition. So the table
// routes every key exactly as the stage loop would (Compiled.Predict stays
// bit-identical to Model.Predict), and even if it did not, the bound it
// predicts under was computed over the very intervals the table was built
// from. Engine.Verify sweeps both edges of every cell ± 1 (RouteEdges);
// TestRoutingTableIsTheStageLoop sweeps a whole 16-bit domain on both planes.

import (
	"math"
	"slices"

	"neurolpm/internal/keys"
)

const (
	// routeBits is how many top key bits index the table: 4 096 cells of two
	// bytes, 8 KiB, a constant of the plane rather than an option.
	routeBits = 12
	// routeFallback marks a cell whose keys run the internal stages.
	routeFallback = math.MaxUint16
)

// routes is one plane's routing table.
type routes struct {
	shift uint     // width − cell bits: a key's cell is key >> shift
	cells []uint16 // final-stage local submodel id, or routeFallback
}

// newRoutes builds a width-bit plane's table from its final-stage
// responsibilities: resp[t] are the intervals the plane's own internal stages
// route to final submodel t.
func newRoutes(width int, resp [][]interval) routes {
	bits := min(routeBits, width)
	r := routes{shift: uint(width - bits), cells: make([]uint16, 1<<bits)}
	for c := range r.cells {
		r.cells[c] = routeFallback
	}
	type owned struct {
		interval
		t int
	}
	var all []owned
	for t, ivs := range resp {
		for _, iv := range ivs {
			all = append(all, owned{iv, t})
		}
	}
	slices.SortFunc(all, func(a, b owned) int { return a.Lo.Cmp(b.Lo) })
	max := keys.NewDomain(width).Max()
	for i := 0; i < len(all); {
		// A run: adjacent intervals of one submodel, reached through different
		// internal submodels or not.
		run := all[i]
		for i++; i < len(all) && all[i].t == run.t && run.Hi.Inc() == all[i].Lo; i++ {
			run.Hi = all[i].Hi
		}
		if run.t >= routeFallback {
			continue // not representable: the stage loop routes these keys
		}
		first, last := int(run.Lo.Shr(r.shift).Lo), int(run.Hi.Shr(r.shift).Lo)
		if run.Lo.Shr(r.shift).Shl(r.shift) != run.Lo {
			first++ // the run starts inside its first cell
		}
		if run.Hi != max && int(run.Hi.Inc().Shr(r.shift).Lo) == last {
			last-- // and ends inside its last one
		}
		for c := first; c <= last; c++ {
			r.cells[c] = uint16(run.t)
		}
	}
	return r
}

// of returns the final-stage submodel the table routes k to; ok is false when
// k's cell falls back or k lies outside the width-bit domain, and the caller
// runs the internal stages.
func (r *routes) of(k keys.Value) (t int, ok bool) {
	s := r.shift
	c := k.Lo>>s | k.Hi<<(64-s) | k.Hi>>(s-64) // k >> s below 2^64 (Go shifts of ≥ 64 are 0)
	if k.Hi>>s != 0 || c >= uint64(len(r.cells)) {
		return 0, false
	}
	t = int(r.cells[c])
	return t, t != routeFallback
}

// RouteEdges returns the first and the last key of every routing-table cell
// of a width-bit plane, in key order: where one cell's entry meets the next,
// which is where a table that disagreed with the stage loop would show.
func RouteEdges(width int) []keys.Value {
	bits := min(routeBits, width)
	shift := uint(width - bits)
	out := make([]keys.Value, 0, 2<<bits)
	for c := uint64(0); c < 1<<bits; c++ {
		first := keys.FromUint64(c).Shl(shift)
		out = append(out, first, first.Add(keys.FromUint64(1).Shl(shift)).Dec())
	}
	return out
}
