package rqrmi

import (
	"math"
	"math/rand"
	"testing"

	"neurolpm/internal/keys"
)

// compileFor trains a quick model over ix and compiles it, failing the test
// on any error.
func compileFor(t testing.TB, ix Index, width int) (*Model, *Compiled) {
	t.Helper()
	m, _, err := Train(ix, width, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(m, ix)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

// probeKeys yields the adversarial key set for equivalence checks: every
// index boundary, its neighbours, and a spread of random keys.
func probeKeys(rng *rand.Rand, ix Index, width int, extra int) []keys.Value {
	dom := keys.NewDomain(width)
	var ks []keys.Value
	for i := 0; i < ix.Len(); i++ {
		b := ix.Low(i)
		ks = append(ks, b)
		if !b.IsZero() {
			ks = append(ks, b.Dec())
		}
		if b.Less(dom.Max()) {
			ks = append(ks, b.Inc())
		}
	}
	for i := 0; i < extra; i++ {
		ks = append(ks, dom.FromUnit(rng.Float64()))
	}
	ks = append(ks, keys.Value{}, dom.Max())
	return ks
}

// assertSame checks Predict, Search and Lookup agree bit-for-bit between the
// model and its compiled plane on key k.
func assertSame(t *testing.T, m *Model, c *Compiled, ix Index, k keys.Value) {
	t.Helper()
	pm := m.Predict(k)
	pc := c.Predict(k)
	if pm != pc {
		t.Fatalf("Predict(%v): model %+v, compiled %+v", k, pm, pc)
	}
	im, probesM := m.Search(ix, k, pm)
	ic, probesC := c.Search(k, pc)
	if im != ic || probesM != probesC {
		t.Fatalf("Search(%v): model (%d,%d), compiled (%d,%d)", k, im, probesM, ic, probesC)
	}
}

func TestCompiledMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name  string
		width int
		ix    Index
	}{
		{"uniform-16", 16, uniformIndex(16, 64)},
		{"uniform-32", 32, uniformIndex(32, 2000)},
		{"skewed-32", 32, skewedIndex(rng, 32, 800)},
		{"uniform-64", 64, uniformIndex(64, 500)},
		{"uniform-128", 128, uniformIndex(128, 300)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, c := compileFor(t, tc.ix, tc.width)
			for _, k := range probeKeys(rng, tc.ix, tc.width, 2000) {
				assertSame(t, m, c, tc.ix, k)
			}
		})
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ix := skewedIndex(rng, 32, 600)
	m, c := compileFor(t, ix, 32)
	ks := probeKeys(rng, ix, 32, 1000)
	// Exercise ragged tails: every batch length from 0 to a few blocks.
	for n := 0; n <= 3*Block+1 && n <= len(ks); n++ {
		out := make([]Prediction, n)
		c.PredictBatch(ks[:n], out)
		for i := 0; i < n; i++ {
			if want := m.Predict(ks[i]); out[i] != want {
				t.Fatalf("PredictBatch[%d/%d] = %+v, want %+v", i, n, out[i], want)
			}
		}
	}
	out := make([]Prediction, len(ks))
	c.PredictBatch(ks, out)
	for i, k := range ks {
		if want := m.Predict(k); out[i] != want {
			t.Fatalf("PredictBatch[%d] = %+v, want %+v", i, out[i], want)
		}
	}
}

// TestCompiledSearchOutOfDomain checks the width ≤ 64 one-limb fast path
// still agrees with the reference 128-bit compare when a caller passes a key
// above the model's domain.
func TestCompiledSearchOutOfDomain(t *testing.T) {
	ix := uniformIndex(32, 200)
	m, c := compileFor(t, ix, 32)
	for _, k := range []keys.Value{
		keys.FromParts(1, 0),
		keys.FromParts(1, 5),
		keys.FromParts(^uint64(0), ^uint64(0)),
		keys.FromUint64(^uint64(0)),
	} {
		assertSame(t, m, c, ix, k)
	}
}

func TestCompiledLayout(t *testing.T) {
	ix := uniformIndex(24, 128)
	m, c := compileFor(t, ix, 24)
	total := 0
	for _, stage := range m.Stages {
		total += len(stage)
	}
	if len(c.bank) != total*blockStride {
		t.Fatalf("bank size %d, want %d for %d submodels", len(c.bank), total*blockStride, total)
	}
	// Padding invariants: knot slots beyond the real knots are +Inf (never
	// counted by the unrolled select); coefficient pads are zero.
	id := 0
	for _, stage := range m.Stages {
		for j := range stage {
			l := &stage[j]
			blk := c.bank[id<<blockShift : (id+1)<<blockShift]
			for i := len(l.Knots); i < padKnots; i++ {
				if !math.IsInf(float64(blk[offKnots+i]), 1) {
					t.Fatalf("submodel %d knot pad %d is %v, want +Inf", id, i, blk[offKnots+i])
				}
			}
			for i := len(l.A); i < padSegs; i++ {
				if blk[offA+i] != 0 || blk[offB+i] != 0 {
					t.Fatalf("submodel %d coeff pad %d not zero", id, i)
				}
			}
			id++
		}
	}
	if c.lows64 == nil {
		t.Fatal("width 24 should compile to the one-limb bounds path")
	}
	if c.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestCompileRejectsMismatch(t *testing.T) {
	ix := uniformIndex(16, 64)
	m, _, err := Train(ix, 16, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(m, uniformIndex(16, 63)); err == nil {
		t.Fatal("Compile accepted an index of the wrong length")
	}
	bad := &Model{} // structurally invalid
	if _, err := Compile(bad, ix); err == nil {
		t.Fatal("Compile accepted an invalid model")
	}
}

// TestEvalSelectsTheReferenceSegment holds eval's branch-free segment select
// to LUT.Eval's scan on hand-built blocks, at the inputs where an integer
// compare of float bit patterns could part from the float compare, and checks
// the knot precondition it rests on is Compile's to enforce.
func TestEvalSelectsTheReferenceSegment(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	segs := func(n int) (a, b []float32) { // distinct per segment, so a wrong select shows
		for i := 0; i < n; i++ {
			a, b = append(a, float32(i+1)), append(b, float32(10*i))
		}
		return a, b
	}
	ix := uniformIndex(32, 16)
	compile := func(knots ...float32) (*LUT, *Compiled, error) {
		a, b := segs(len(knots) + 1)
		m := &Model{Width: 32, N: ix.Len(), Stages: [][]LUT{{{Knots: knots, A: a, B: b}}}}
		c, err := Compile(m, ix)
		return &m.Stages[0][0], c, err
	}
	maxU := float32(1)
	for _, tc := range []struct {
		name  string
		knots []float32
	}{
		{"all-pad", nil},
		{"one", []float32{0.5}},
		{"full", []float32{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}},
		{"repeated", []float32{0.25, 0.25, 0.25, 0.5, 0.5, 0.75}},
		{"zero-and-top", []float32{0, 0, math.SmallestNonzeroFloat32, 1, 1}},
		{"negative-zero", []float32{negZero, 0.5}},
		{"infinite", []float32{0.5, float32(math.Inf(1))}},
	} {
		l, c, err := compile(tc.knots...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		us := []float32{0, math.SmallestNonzeroFloat32, 0.5, maxU, math.Nextafter32(maxU, 0), 4}
		for _, kn := range tc.knots {
			if !math.IsInf(float64(kn), 0) {
				us = append(us, kn, math.Nextafter32(kn, 2), math.Nextafter32(kn, -1))
			}
		}
		for _, u := range us {
			if u < 0 {
				continue // never an input: unit() maps keys to [0, 1]
			}
			if got, want := c.eval(0, u), l.Eval(u); got != want {
				t.Fatalf("%s: eval(%v) = %v, LUT.Eval %v", tc.name, u, got, want)
			}
		}
	}
	if _, c, _ := compile(negZero, 0.5); math.Float32bits(c.bank[offKnots]) != 0 {
		t.Fatalf("a −0 knot was stored as %#x, want +0", math.Float32bits(c.bank[offKnots]))
	}
	for name, kn := range map[string]float32{"negative": -0.25, "NaN": float32(math.NaN())} {
		if _, _, err := compile(kn); err == nil {
			t.Fatalf("Compile accepted a %s knot", name)
		}
	}
}
