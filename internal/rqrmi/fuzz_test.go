package rqrmi

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"neurolpm/internal/keys"
)

// FuzzReadModel ensures arbitrary byte streams never panic the
// deserializer, and that any accepted model validates.
func FuzzReadModel(f *testing.F) {
	// Seed with a real serialized model.
	ix := uniformIndex(16, 64)
	m, _, err := Train(ix, 16, quickConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("RQRMI1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted model fails validation: %v", err)
		}
	})
}

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
// quantized plane) to its single-key Search over a block grown from the fuzz
// input — the key, its complement, its halves swapped and its neighbour, so
// the block's windows differ in width and place — predicted by pl itself.
func (p *fuzzPlane) searchBlockMatches(t *testing.T, hi, lo uint64, pl interface {
	PredictBatch([]keys.Value, []Prediction)
	Search(keys.Value, Prediction) (int, int)
	SearchBlock([]keys.Value, []Prediction, []int, []int)
}) {
	ks := []keys.Value{p.inDomain(hi, lo), p.inDomain(^hi, ^lo), p.inDomain(lo, hi), p.inDomain(hi, lo+1)}
	var ps [4]Prediction
	var idx, probes [4]int
	pl.PredictBatch(ks, ps[:])
	pl.SearchBlock(ks, ps[:], idx[:], probes[:])
	for i, k := range ks {
		if wi, wp := pl.Search(k, ps[i]); idx[i] != wi || probes[i] != wp {
			t.Fatalf("width %d SearchBlock[%d](%v) = (%d,%d), Search (%d,%d)", p.width, i, k, idx[i], probes[i], wi, wp)
		}
	}
}

// FuzzCompiledVsModel is the compiled plane's bit-identity enforcement
// (CLAUDE.md): for arbitrary keys, Compiled.Predict/Search/Lookup must equal
// Model.Predict/Search/Lookup exactly — index, error bound, submodel, and
// probe count — on 32-, 64- and 128-bit models. Any divergence means the
// analyze.go error bounds no longer cover the deployed arithmetic.
func FuzzCompiledVsModel(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0), uint64(1)<<31)
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(0), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, hi, lo uint64) {
		for _, p := range getFuzzPlanes(t) {
			k := p.inDomain(hi, lo)
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
			p.searchBlockMatches(t, hi, lo, p.c)
		}
	})
}

// FuzzQuantizedVsModel is the quantized plane's bound-inclusion enforcement
// (CLAUDE.md, DESIGN.md §15). The int32 arithmetic is NOT bit-identical to
// the float planes — rounded coefficients move predictions — so the contract
// is the one the bounded search actually needs: for every key, the stored
// quantized error bound covers the quantized prediction's distance from the
// true index, and therefore Search/Lookup land on exactly the index the
// reference model finds. The batch arm must still be bit-identical to the
// quantized single-key arm.
func FuzzQuantizedVsModel(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0), uint64(1)<<31)
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(0), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, hi, lo uint64) {
		for _, p := range getFuzzPlanes(t) {
			k := p.inDomain(hi, lo)
			truth := Find(p.ix, k)
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
			if im, _ := p.m.Lookup(p.ix, k); im != iq {
				t.Fatalf("width %d Lookup(%v): quantized %d, model %d", p.width, k, iq, im)
			}
			var one [1]Prediction
			p.q.PredictBatch([]keys.Value{k}, one[:])
			if one[0] != pq {
				t.Fatalf("width %d PredictBatch(%v) = %+v, want %+v", p.width, k, one[0], pq)
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
