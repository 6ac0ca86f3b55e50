package rqrmi

import (
	"math/rand"
	"sync"
	"testing"

	"neurolpm/internal/keys"
)

// fuzzPlane is one trained model plus its compiled and quantized planes,
// shared across fuzz iterations (training once per process keeps the fuzz
// loop fast).
type fuzzPlane struct {
	width int
	ix    Index
	m     *Model
	c     *Compiled
	q     *Quantized
}

var (
	fuzzPlanesOnce sync.Once
	fuzzPlanes     []fuzzPlane
)

func getFuzzPlanes(t testing.TB) []fuzzPlane {
	fuzzPlanesOnce.Do(func() {
		rng := rand.New(rand.NewSource(99))
		for _, w := range []int{32, 64, 128} {
			ix := skewedIndex(rng, w, 400)
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
			fuzzPlanes = append(fuzzPlanes, fuzzPlane{width: w, ix: ix, m: m, c: c, q: q})
		}
	})
	return fuzzPlanes
}

// inDomain maps the fuzzer's two words to a key of p's width.
func (p *fuzzPlane) inDomain(hi, lo uint64) keys.Value {
	switch {
	case p.width > 64:
		return keys.FromParts(hi, lo)
	case p.width == 64:
		return keys.FromUint64(lo)
	}
	return keys.FromUint64(lo & (1<<uint(p.width) - 1))
}

// searchBlockMatches holds the lockstep SearchBlock of pl (p's compiled or
// quantized plane) to its single-key Search, and the probe count derived from
// each block answer to Search's, over a block grown from the fuzz input — the
// key, its complement, its halves swapped and its neighbour, so the block's
// windows differ in width and place — predicted by pl itself.
func (p *fuzzPlane) searchBlockMatches(t *testing.T, hi, lo uint64, pl interface {
	Predict(keys.Value) Prediction
	Search(keys.Value, Prediction) (int, int)
	SearchBlock([]keys.Value, []Prediction, []int)
	Probes(Prediction, int) int
}) {
	ks := []keys.Value{p.inDomain(hi, lo), p.inDomain(^hi, ^lo), p.inDomain(lo, hi), p.inDomain(hi, lo+1)}
	var ps [4]Prediction
	var idx [4]int
	for i, k := range ks {
		ps[i] = pl.Predict(k)
	}
	pl.SearchBlock(ks, ps[:], idx[:])
	for i, k := range ks {
		if wi, wp := pl.Search(k, ps[i]); idx[i] != wi || pl.Probes(ps[i], idx[i]) != wp {
			t.Fatalf("width %d SearchBlock[%d](%v) = (%d,%d), Search (%d,%d)", p.width, i, k, idx[i], pl.Probes(ps[i], idx[i]), wi, wp)
		}
	}
}

// addRouteSeeds adds the keys the routing table treats apart: keys outside a
// 32-bit plane's domain (Hi ≠ 0; Lo ≥ 2^32), which bypass the table, and
// 128-bit keys whose cell is taken from the high limb.
func addRouteSeeds(f *testing.F) {
	f.Add(uint64(1), uint64(5))
	f.Add(uint64(0), uint64(1)<<40|0x1234)
	f.Add(uint64(0x8000_0000_0000_0001), uint64(7))
	f.Add(uint64(0x0fff_ffff_ffff_ffff), ^uint64(0))
}

// FuzzCompiledVsModel is the compiled plane's bit-identity enforcement
// (CLAUDE.md): for arbitrary keys, Compiled.Predict/Search/Lookup must equal
// Model.Predict/Search/Lookup exactly — index, error bound, submodel, and
// probe count — on 32-, 64- and 128-bit models, for the fuzz input taken into
// each model's domain and taken as it is (out of a narrow model's domain the
// table falls back to the stage loop). Any divergence means the table or the
// arithmetic no longer follows the analyze.go partition that the error
// bounds cover.
func FuzzCompiledVsModel(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0), uint64(1)<<31)
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(0), uint64(0xdeadbeef))
	addRouteSeeds(f)
	f.Fuzz(func(t *testing.T, hi, lo uint64) {
		for _, p := range getFuzzPlanes(t) {
			for _, k := range []keys.Value{p.inDomain(hi, lo), keys.FromParts(hi, lo)} {
				pm := p.m.Predict(k)
				pc := p.c.Predict(k)
				if pm != pc {
					t.Fatalf("width %d Predict(%v): model %+v, compiled %+v", p.width, k, pm, pc)
				}
				im, probesM := p.m.Search(p.ix, k, pm)
				ic, probesC := p.c.Search(k, pc)
				if im != ic || probesM != probesC {
					t.Fatalf("width %d Search(%v): model (%d,%d), compiled (%d,%d)",
						p.width, k, im, probesM, ic, probesC)
				}
				var one [1]Prediction
				p.c.PredictBatch([]keys.Value{k}, one[:])
				if one[0] != pm {
					t.Fatalf("width %d PredictBatch(%v) = %+v, want %+v", p.width, k, one[0], pm)
				}
			}
			p.searchBlockMatches(t, hi, lo, p.c)
		}
	})
}

// FuzzQuantizedVsModel is the quantized plane's bound-inclusion enforcement
// (CLAUDE.md, DESIGN.md §10). The int32 arithmetic is NOT bit-identical to
// the float planes — rounded coefficients move predictions — so the contract
// is the one the bounded search actually needs: for every key, the stored
// quantized error bound covers the quantized prediction's distance from the
// true index, and therefore Search lands on exactly the index the reference
// model finds. SearchBlock must still match Search key for key.
func FuzzQuantizedVsModel(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0), uint64(1)<<31)
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(0), uint64(0xdeadbeef))
	addRouteSeeds(f)
	f.Fuzz(func(t *testing.T, hi, lo uint64) {
		for _, p := range getFuzzPlanes(t) {
			in := p.inDomain(hi, lo)
			for _, k := range []keys.Value{in, keys.FromParts(hi, lo)} {
				truth := find(p.ix, k)
				pq := p.q.Predict(k)
				if d := pq.Index - truth; d > pq.Err || -d > pq.Err {
					t.Fatalf("width %d Predict(%v): quantized index %d err %d does not cover truth %d",
						p.width, k, pq.Index, pq.Err, truth)
				}
				iq, probes := p.q.Search(k, pq)
				if iq != truth {
					t.Fatalf("width %d Search(%v) = %d, want true index %d", p.width, k, iq, truth)
				}
				if probes > 3+2*bitsLen(2*pq.Err) {
					t.Fatalf("width %d Search(%v): %d probes for err %d", p.width, k, probes, pq.Err)
				}
				// The reference model is only analyzed inside its domain.
				if im, _ := p.m.Lookup(p.ix, k); k == in && im != iq {
					t.Fatalf("width %d Lookup(%v): quantized %d, model %d", p.width, k, iq, im)
				}
			}
			p.searchBlockMatches(t, hi, lo, p.q)
		}
	})
}

func bitsLen(v int) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}
