package rqrmi

import (
	"math/rand"
	"testing"

	"neurolpm/internal/keys"
)

// quantPlanes trains one model per width and compiles both planes. The
// widths exercise every unit() branch: shl (≤30), shr on one limb (≤64),
// the split Hi/Lo shift (64<width<94), and the Hi-only shift (≥94).
func quantPlanes(t *testing.T, widths []int) []fuzzPlane {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var out []fuzzPlane
	for _, w := range widths {
		n := 200
		if w < 10 {
			n = 40
		}
		ix := skewedIndex(rng, w, n)
		m, _, err := Train(ix, w, quickConfig())
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		c, err := Compile(m, ix)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		q, err := CompileQuantized(m, ix)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		out = append(out, fuzzPlane{width: w, ix: ix, m: m, c: c, q: q})
	}
	return out
}

// checkQuantizedKey asserts the bound-inclusion contract for one key: the
// stored quantized error bound covers the quantized prediction, and the
// bounded search therefore returns exactly the true index.
func checkQuantizedKey(t *testing.T, p fuzzPlane, k keys.Value) {
	t.Helper()
	truth := Find(p.ix, k)
	pq := p.q.Predict(k)
	if d := pq.Index - truth; d > pq.Err || -d > pq.Err {
		t.Fatalf("width %d key %v: quantized index %d err %d does not cover truth %d",
			p.width, k, pq.Index, pq.Err, truth)
	}
	if idx, _ := p.q.Lookup(k); idx != truth {
		t.Fatalf("width %d key %v: quantized Lookup %d, want %d", p.width, k, idx, truth)
	}
}

// TestQuantizedBoundInclusion sweeps every index boundary ±1 plus random
// keys on models covering all unit() width branches. This is the
// deterministic counterpart of FuzzQuantizedVsModel: the true index only
// changes at entry lower bounds, so boundary keys are where a stale or
// miscomputed bound would surface first.
func TestQuantizedBoundInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, p := range quantPlanes(t, []int{15, 16, 30, 32, 64, 80, 128}) {
		dom := keys.NewDomain(p.width)
		checkQuantizedKey(t, p, keys.Value{})
		checkQuantizedKey(t, p, dom.Max())
		for i := 0; i < p.ix.Len(); i++ {
			low := p.ix.Low(i)
			if !low.IsZero() {
				checkQuantizedKey(t, p, low.Dec())
			}
			checkQuantizedKey(t, p, low)
			if low.Less(dom.Max()) {
				checkQuantizedKey(t, p, low.Inc())
			}
		}
		for i := 0; i < 500; i++ {
			k := keys.FromParts(rng.Uint64(), rng.Uint64()).And(dom.Max())
			checkQuantizedKey(t, p, k)
		}
		// Out-of-domain keys must saturate like the reference's ≥1 clamp,
		// not wrap: still bound-covered, still found.
		if p.width < 64 {
			checkQuantizedKey(t, p, keys.FromUint64(^uint64(0)))
			checkQuantizedKey(t, p, keys.FromParts(1, 0))
		}
	}
}

// TestQuantizedExhaustiveTinyDomain verifies the analysis is exact, not
// just safe, on a domain small enough to enumerate: every single key of an
// 8-bit model must be bound-covered, and the stored per-plane MaxErr must
// be attained (the bound is the maximum, so an unattained bound means the
// analysis over-approximated — legal for safety but a regression for probe
// counts, and a symptom of analysis/hot-path divergence).
func TestQuantizedExhaustiveTinyDomain(t *testing.T) {
	for _, p := range quantPlanes(t, []int{8}) {
		worst := 0
		for v := uint64(0); v < 1<<8; v++ {
			k := keys.FromUint64(v)
			checkQuantizedKey(t, p, k)
			pq := p.q.Predict(k)
			d := pq.Index - Find(p.ix, k)
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		if worst != p.q.MaxErr() {
			t.Errorf("width 8: observed worst error %d, stored MaxErr %d (bound not tight)",
				worst, p.q.MaxErr())
		}
	}
}

// TestQuantizedBatchMatchesSingle pins the software-pipelined batch arm to
// the single-key arm bit-for-bit, across block-size boundaries.
func TestQuantizedBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, p := range quantPlanes(t, []int{32, 128}) {
		dom := keys.NewDomain(p.width)
		for _, n := range []int{1, Block - 1, Block, Block + 1, 3*Block + 5} {
			ks := make([]keys.Value, n)
			for i := range ks {
				ks[i] = keys.FromParts(rng.Uint64(), rng.Uint64()).And(dom.Max())
			}
			out := make([]Prediction, n)
			p.q.PredictBatch(ks, out)
			for i, k := range ks {
				if want := p.q.Predict(k); out[i] != want {
					t.Fatalf("width %d batch[%d] (n=%d) = %+v, want %+v", p.width, i, n, out[i], want)
				}
			}
		}
	}
}

// TestQuantizedBankShrink pins the tentpole's storage claim: the int16
// coefficient bank must be at most 0.6× the float32 bank (0.52× measured at
// engine scale on the ripe set, DESIGN.md §15).
func TestQuantizedBankShrink(t *testing.T) {
	for _, p := range quantPlanes(t, []int{32}) {
		qb, cb := p.q.BankBytes(), p.c.BankBytes()
		if qb <= 0 || cb <= 0 {
			t.Fatalf("degenerate bank sizes: quantized %d, compiled %d", qb, cb)
		}
		if ratio := float64(qb) / float64(cb); ratio > 0.6 {
			t.Errorf("quantized bank %dB / compiled bank %dB = %.3f, want ≤ 0.6", qb, cb, ratio)
		}
		if p.q.SizeBytes() <= p.q.BankBytes() {
			t.Errorf("SizeBytes %d must include the bounds copy beyond the bank %d",
				p.q.SizeBytes(), p.q.BankBytes())
		}
	}
}

// TestCompileQuantizedRejects mirrors Compile's validation: structurally
// invalid models and index-length mismatches must fail loudly — a silent
// mismatch would void every stored bound.
func TestCompileQuantizedRejects(t *testing.T) {
	ix := uniformIndex(16, 32)
	m, _, err := Train(ix, 16, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileQuantized(m, uniformIndex(16, 16)); err == nil {
		t.Error("CompileQuantized accepted an index shorter than the model's N")
	}
	bad := &Model{Width: 16, N: 32}
	if _, err := CompileQuantized(bad, ix); err == nil {
		t.Error("CompileQuantized accepted a model with no stages")
	}
}
