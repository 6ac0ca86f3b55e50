package core

import (
	"math/rand"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
)

// TestSampleEveryPowerOfTwo pins the sampling-mask precondition: the hot
// path computes n & (sampleEvery-1), which silently samples garbage strides
// unless sampleEvery is a power of two.
func TestSampleEveryPowerOfTwo(t *testing.T) {
	if sampleEvery <= 0 || sampleEvery&(sampleEvery-1) != 0 {
		t.Fatalf("sampleEvery = %d must be a positive power of two: the n&(sampleEvery-1) mask in lookup depends on it", sampleEvery)
	}
}

// compiledConfigs covers both designs the compiled plane serves: SRAM-only
// (search over the full range array) and bucketized (directory search plus
// the devirtualized bucket scan).
func compiledConfigs() map[string]Config {
	return map[string]Config{"sram": quickSRAMOnly(), "bucketized": quickBucketed()}
}

func TestLookupBatchMatchesLookup(t *testing.T) {
	for name, cfg := range compiledConfigs() {
		t.Run(name, func(t *testing.T) {
			rs := randomRuleSet(t, 32, 3000, 5)
			e, err := Build(rs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			// Ragged batch lengths exercise the block tail paths.
			for _, n := range []int{0, 1, 7, rqrmi.Block, rqrmi.Block + 1, 3*rqrmi.Block + 5, 1000} {
				ks := make([]keys.Value, n)
				for i := range ks {
					ks[i] = randomKey(rng, 32)
				}
				out := e.LookupBatch(ks, nil)
				if len(out) != n {
					t.Fatalf("LookupBatch returned %d results for %d keys", len(out), n)
				}
				for i, k := range ks {
					a, ok := e.Lookup(k)
					if out[i].Action != a || out[i].Matched != ok {
						t.Fatalf("batch[%d] = (%d,%v), Lookup = (%d,%v)", i, out[i].Action, out[i].Matched, a, ok)
					}
				}
			}
			// Reuse: a caller-provided slice with capacity must not allocate
			// a fresh one.
			ks := []keys.Value{randomKey(rng, 32), randomKey(rng, 32)}
			buf := make([]BatchResult, 0, 16)
			out := e.LookupBatch(ks, buf)
			if cap(out) != cap(buf) {
				t.Fatal("LookupBatch reallocated a result slice that had capacity")
			}
		})
	}
}

// TestLookupReferenceMatchesLookup holds Lookup to the reference pipeline —
// the model's own arithmetic end to end — on random keys.
func TestLookupReferenceMatchesLookup(t *testing.T) {
	for name, cfg := range compiledConfigs() {
		t.Run(name, func(t *testing.T) {
			rs := randomRuleSet(t, 32, 2000, 8)
			e, err := Build(rs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 20000; i++ {
				k := randomKey(rng, 32)
				a, ok := e.Lookup(k)
				ra, rok := e.reference(k)
				if a != ra || ok != rok {
					t.Fatalf("key %v: compiled (%d,%v), reference (%d,%v)", k, a, ok, ra, rok)
				}
			}
		})
	}
}

// TestCompiledSurvivesUpdates checks the compiled plane stays correct across
// the no-retrain update paths (Delete re-owns ranges, ModifyAction rewrites
// actions): boundaries never move, so the flat bounds copy must stay valid.
func TestCompiledSurvivesUpdates(t *testing.T) {
	rs := randomRuleSet(t, 32, 400, 10)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r := rs.Rules[i*7%rs.Len()]
		if i%2 == 0 {
			if err := e.Delete(r.Prefix, r.Len); err != nil {
				continue
			}
		} else {
			if err := e.ModifyAction(r.Prefix, r.Len, 424242+uint64(i)); err != nil {
				continue
			}
		}
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}

// shiftedLow is an index with bound at moved up by one.
type shiftedLow struct {
	*ranges.Array
	at int
}

func (s shiftedLow) Low(i int) keys.Value {
	if i == s.at {
		return s.Array.Low(i).Inc()
	}
	return s.Array.Low(i)
}

// TestVerifyCatchesCompiledDivergence corrupts the flat bounds copy and
// checks Verify reports the compiled/reference divergence instead of
// passing silently.
func TestVerifyCatchesCompiledDivergence(t *testing.T) {
	rs := randomRuleSet(t, 32, 300, 11)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatalf("clean engine must verify: %v", err)
	}
	// Shift one compiled bound by rebuilding the plane over the range array
	// with that bound moved; the model itself is untouched.
	n := e.ra.Len()
	if n < 2 {
		t.Skip("degenerate array")
	}
	if _, err := e.compilePlane(shiftedLow{e.ra, n / 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err == nil {
		t.Fatal("Verify passed with a corrupted compiled plane")
	}
	// Restore for hygiene.
	if _, err := e.compilePlane(e.ra); err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatalf("restored engine must verify: %v", err)
	}
}
