package rqrmi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"neurolpm/internal/keys"
)

// sliceIndex is a test Index over explicit lower bounds.
type sliceIndex struct {
	lows []keys.Value
}

func (s *sliceIndex) Len() int             { return len(s.lows) }
func (s *sliceIndex) Low(i int) keys.Value { return s.lows[i] }

// uniformIndex builds n entries spread evenly across a width-bit domain.
func uniformIndex(width, n int) *sliceIndex {
	dom := keys.NewDomain(width)
	lows := make([]keys.Value, n)
	for i := 1; i < n; i++ {
		lows[i] = dom.FromUnit(float64(i) / float64(n))
	}
	return &sliceIndex{lows: dedupe(lows)}
}

// skewedIndex builds n entries clustered in a few hot regions, mimicking the
// clustered low bounds of real forwarding tables.
func skewedIndex(rng *rand.Rand, width, n int) *sliceIndex {
	dom := keys.NewDomain(width)
	centers := []float64{0.1, 0.35, 0.71, 0.92}
	lowSet := map[keys.Value]bool{{}: true}
	for len(lowSet) < n {
		c := centers[rng.Intn(len(centers))]
		u := c + rng.NormFloat64()*0.02
		if u <= 0 || u >= 1 {
			continue
		}
		lowSet[dom.FromUnit(u)] = true
	}
	lows := make([]keys.Value, 0, len(lowSet))
	for v := range lowSet {
		lows = append(lows, v)
	}
	sortValues(lows)
	return &sliceIndex{lows: lows}
}

func sortValues(v []keys.Value) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j].Less(v[j-1]); j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func dedupe(v []keys.Value) []keys.Value {
	out := v[:1]
	for _, x := range v[1:] {
		if out[len(out)-1].Less(x) {
			out = append(out, x)
		}
	}
	return out
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.StageWidths = []int{1, 2, 8}
	return cfg
}

// newMLP returns a network near the identity map on [0,1) — hinges spread
// across the interval, small noise breaking ties — for tests to perturb.
func newMLP(rng *rand.Rand) *mlp {
	m := &mlp{}
	for k := 0; k < hiddenUnits; k++ {
		m.w1[k] = 1 + 0.01*rng.NormFloat64()
		m.b1[k] = -float64(k)/hiddenUnits + 0.01*rng.NormFloat64()
		m.w2[k] = 0.05 * rng.NormFloat64()
	}
	m.w2[0] = 1
	return m
}

// fittedMLP is the network Train would give a single submodel answering for
// the whole of ix.
func fittedMLP(ix Index, width int) *mlp {
	whole := []interval{{Lo: keys.Value{}, Hi: keys.NewDomain(width).Max()}}
	return fitMLP(boundaryPoints(ix, width, whole), ix.Len())
}

func TestFind(t *testing.T) {
	ix := &sliceIndex{lows: []keys.Value{
		keys.FromUint64(0), keys.FromUint64(10), keys.FromUint64(20),
	}}
	cases := map[uint64]int{0: 0, 5: 0, 10: 1, 19: 1, 20: 2, 1000: 2}
	for k, want := range cases {
		if got := Find(ix, keys.FromUint64(k)); got != want {
			t.Errorf("Find(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestLUTEval(t *testing.T) {
	l := LUT{
		Knots: []float32{0.5},
		A:     []float32{1, 2},
		B:     []float32{0, -0.5},
	}
	if got := l.Eval(0.25); got != 0.25 {
		t.Errorf("Eval(0.25) = %g", got)
	}
	if got := l.Eval(0.5); got != 0.5 { // boundary belongs to left segment
		t.Errorf("Eval(0.5) = %g", got)
	}
	if got := l.Eval(0.75); got != 1.0 {
		t.Errorf("Eval(0.75) = %g", got)
	}
}

func TestScaleClamp(t *testing.T) {
	cases := []struct {
		y    float32
		n    int
		want int
	}{
		{-0.5, 10, 0},
		{0, 10, 0},
		{float32(math.NaN()), 10, 0},
		{0.05, 10, 0},
		{0.15, 10, 1},
		{0.999999, 10, 9},
		{1, 10, 9},
		{5, 10, 9},
	}
	for _, c := range cases {
		if got := scaleClamp(c.y, c.n); got != c.want {
			t.Errorf("scaleClamp(%g,%d) = %d, want %d", c.y, c.n, got, c.want)
		}
	}
}

// TestCompileMatchesForward is the §5.2.2 equivalence: the compiled LUT must
// reproduce the MLP output (up to float32 storage of the coefficients).
func TestCompileMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		m := newMLP(rng)
		if trial < 50 {
			// Randomize beyond the near-identity init.
			for k := 0; k < hiddenUnits; k++ {
				m.w1[k] = rng.NormFloat64() * 3
				m.b1[k] = rng.NormFloat64()
				m.w2[k] = rng.NormFloat64()
			}
			m.b2 = rng.NormFloat64()
		} else {
			// The networks the trainer actually produces.
			m = fittedMLP(skewedIndex(rng, 24, 300), 24)
		}
		lut := m.compile()
		if lut.Segments() > MaxSegments {
			t.Fatalf("%d segments", lut.Segments())
		}
		for q := 0; q < 200; q++ {
			u := rng.Float64()
			want := m.forward(u)
			got := float64(lut.Eval(float32(u)))
			// float32 coefficient storage bounds the discrepancy.
			tol := 1e-5 * (1 + math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("trial %d u=%g: lut %g vs mlp %g", trial, u, got, want)
			}
		}
	}
}

func TestCompileSegmentCount(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := newMLP(rng)
	lut := m.compile()
	if lut.Segments() < 1 || lut.Segments() > MaxSegments {
		t.Fatalf("segments = %d", lut.Segments())
	}
	if len(lut.Knots) != lut.Segments()-1 {
		t.Fatalf("knots = %d for %d segments", len(lut.Knots), lut.Segments())
	}
}

// TestMLPTrainsLinear: the fit recovers a line exactly, with one unit.
func TestMLPTrainsLinear(t *testing.T) {
	const n = 1000
	var pts []point
	for i := 0; i < 512; i++ {
		u := float64(i) / 512
		pts = append(pts, point{x: u, y: n * (0.2 + 0.6*u)})
	}
	m := fitMLP(pts, n)
	for k := 1; k < hiddenUnits; k++ {
		if m.w1[k] != 0 || m.w2[k] != 0 {
			t.Fatalf("unit %d is in use: a line needs one", k)
		}
	}
	for _, p := range pts {
		if got, want := m.forward(p.x), 0.2+0.6*p.x; math.Abs(got-want) > 1e-12 {
			t.Fatalf("u=%g: network %g, line %g", p.x, got, want)
		}
	}
	// The same through Train: evenly spaced boundaries are a line.
	_, stats, err := Train(uniformIndex(16, 256), 16, Config{StageWidths: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxErr() > 1 {
		t.Fatalf("bound %d on a linear index", stats.MaxErr())
	}
}

func TestSplitAtKnotsCoversInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	width := 24
	dom := keys.NewDomain(width)
	for trial := 0; trial < 30; trial++ {
		m := newMLP(rng)
		for k := 0; k < hiddenUnits; k++ {
			m.w1[k] = rng.NormFloat64() * 2
			m.b1[k] = rng.NormFloat64() * 0.5
		}
		lut := m.compile()
		iv := interval{Lo: keys.Value{}, Hi: dom.Max()}
		pieces := splitAtKnots(width, &lut, iv)
		if pieces[0].Lo != iv.Lo || pieces[len(pieces)-1].Hi != iv.Hi {
			t.Fatalf("pieces do not span interval: %+v", pieces)
		}
		for i := range pieces {
			if pieces[i].Hi.Less(pieces[i].Lo) {
				t.Fatalf("piece %d inverted: %+v", i, pieces[i])
			}
			if i > 0 && pieces[i-1].Hi.Inc() != pieces[i].Lo {
				t.Fatalf("gap between pieces %d and %d", i-1, i)
			}
		}
	}
}

func TestPartitionAgreesWithRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	width := 20
	dom := keys.NewDomain(width)
	for trial := 0; trial < 20; trial++ {
		m := newMLP(rng)
		for k := 0; k < hiddenUnits; k++ {
			m.w1[k] = rng.NormFloat64() * 2
			m.w2[k] = rng.NormFloat64() * 0.5
		}
		lut := m.compile()
		n := 8
		parts := partition(width, &lut, n, []interval{{Lo: keys.Value{}, Hi: dom.Max()}})
		// Every sampled key must land in the part it routes to.
		for q := 0; q < 500; q++ {
			k := keys.FromUint64(rng.Uint64() & (1<<20 - 1))
			want := scaleClamp(lut.Eval(unitOf(width, k)), n)
			found := -1
			for slot, ivs := range parts {
				for _, iv := range ivs {
					if !k.Less(iv.Lo) && !iv.Hi.Less(k) {
						found = slot
					}
				}
			}
			if found != want {
				t.Fatalf("key %v in part %d, routes to %d", k, found, want)
			}
		}
		// Parts must tile the domain exactly.
		total := 0.0
		for _, ivs := range parts {
			for _, iv := range ivs {
				total += iv.Hi.Sub(iv.Lo).Float64() + 1
			}
		}
		if want := math.Ldexp(1, width); total != want {
			t.Fatalf("parts cover %g keys, want %g", total, want)
		}
	}
}

// TestErrorBoundSound is the core soundness property: on a small domain the
// analytically computed bound must dominate the true error at EVERY key.
func TestErrorBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	width := 12
	dom := keys.NewDomain(width)
	for trial := 0; trial < 15; trial++ {
		ix := skewedIndex(rng, width, 40)
		// Fit, then knock the fit about so the bound is non-trivial.
		m := fittedMLP(ix, width)
		for k := 0; k < hiddenUnits; k++ {
			m.w2[k] *= 1 + 0.2*rng.NormFloat64()
		}
		lut := m.compile()
		ivs := []interval{{Lo: keys.Value{}, Hi: dom.Max()}}
		bound := int(errorBound(width, &lut, ix, ivs))

		worst := 0
		for k := uint64(0); k < 1<<width; k++ {
			key := keys.FromUint64(k)
			p := scaleClamp(lut.Eval(unitOf(width, key)), ix.Len())
			d := p - Find(ix, key)
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		if worst > bound {
			t.Fatalf("trial %d: true max error %d exceeds bound %d", trial, worst, bound)
		}
		if bound > worst {
			// The analysis is exact, not just sound.
			t.Fatalf("trial %d: bound %d exceeds true max error %d (not tight)", trial, bound, worst)
		}
	}
}

func TestTrainUniform(t *testing.T) {
	ix := uniformIndex(32, 1000)
	m, stats, err := Train(ix, 32, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duration <= 0 {
		t.Error("no duration recorded")
	}
	assertLookupsCorrect(t, m, ix, 32, 3000)
}

func TestTrainSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ix := skewedIndex(rng, 32, 2000)
	m, _, err := Train(ix, 32, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertLookupsCorrect(t, m, ix, 32, 3000)
}

func TestTrainExhaustiveSmallDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ix := skewedIndex(rng, 14, 120)
	m, _, err := Train(ix, 14, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1<<14; k++ {
		key := keys.FromUint64(k)
		idx, _ := m.Lookup(ix, key)
		if want := Find(ix, key); idx != want {
			t.Fatalf("key %d: lookup %d, want %d", k, idx, want)
		}
	}
}

func TestTrain128Bit(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dom := keys.NewDomain(128)
	lowSet := map[keys.Value]bool{{}: true}
	for len(lowSet) < 300 {
		lowSet[dom.FromUnit(rng.Float64())] = true
	}
	lows := make([]keys.Value, 0, len(lowSet))
	for v := range lowSet {
		lows = append(lows, v)
	}
	sortValues(lows)
	ix := &sliceIndex{lows: lows}
	m, _, err := Train(ix, 128, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertLookupsCorrect(t, m, ix, 128, 2000)
}

func assertLookupsCorrect(t *testing.T, m *Model, ix Index, width, queries int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	dom := keys.NewDomain(width)
	check := func(k keys.Value) {
		idx, probes := m.Lookup(ix, k)
		if want := Find(ix, k); idx != want {
			t.Fatalf("key %v: lookup %d, want %d", k, idx, want)
		}
		if probes > 2+bitsFor(2*m.MaxErr()+1) {
			t.Fatalf("key %v: %d probes exceed bound for err %d", k, probes, m.MaxErr())
		}
	}
	for q := 0; q < queries; q++ {
		check(dom.FromUnit(rng.Float64()))
	}
	// Boundaries are the adversarial inputs.
	for i := 0; i < ix.Len(); i++ {
		check(ix.Low(i))
		if !ix.Low(i).IsZero() {
			check(ix.Low(i).Dec())
		}
	}
	check(dom.Max())
}

func bitsFor(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b + 1
}

func TestVerifyTrainedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ix := skewedIndex(rng, 24, 500)
	m, _, err := Train(ix, 24, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ok, witness := m.Verify(ix); !ok {
		t.Fatalf("Verify failed at key %v", witness)
	}
}

func TestVerifyDetectsCorruptBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ix := skewedIndex(rng, 20, 400)
	m, _, err := Train(ix, 20, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: zero out all final-stage error bounds.
	last := len(m.Stages) - 1
	sabotaged := false
	for j := range m.Stages[last] {
		if m.Stages[last][j].Err > 0 {
			m.Stages[last][j].Err = 0
			sabotaged = true
		}
	}
	if !sabotaged {
		t.Skip("model trained to zero error; nothing to sabotage")
	}
	if ok, _ := m.Verify(ix); ok {
		t.Fatal("Verify accepted corrupted bounds")
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	ix := uniformIndex(16, 100)
	bad := []Config{
		{},
		{StageWidths: []int{2, 4}},
		{StageWidths: []int{1, 0}},
		{StageWidths: []int{1, 4, -1}},
	}
	for i, cfg := range bad {
		if _, _, err := Train(ix, 16, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestTrainEmptyIndex(t *testing.T) {
	if _, _, err := Train(&sliceIndex{}, 16, quickConfig()); err == nil {
		t.Fatal("empty index accepted")
	}
}

func TestTrainSingleEntry(t *testing.T) {
	ix := &sliceIndex{lows: []keys.Value{{}}}
	m, _, err := Train(ix, 16, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := m.Lookup(ix, keys.FromUint64(12345))
	if idx != 0 {
		t.Fatalf("lookup = %d", idx)
	}
}

// TestTrainDegenerateInputs: the shapes a fit could trip on — nothing to fit,
// a single point, empty responsibilities, boundaries inference cannot tell
// apart — train, keep their bounds and answer every lookup.
func TestTrainDegenerateInputs(t *testing.T) {
	collapsed := []keys.Value{{}}
	for i := uint64(0); i < 50; i++ {
		// All fifty share one float32 coordinate, 2⁻²⁸.
		collapsed = append(collapsed, keys.FromParts(1<<36, i))
	}
	collapsed = append(collapsed, keys.FromParts(1<<63, 0))
	cases := []struct {
		name  string
		width int
		lows  []keys.Value
		cfg   Config
	}{
		{"one entry", 16, []keys.Value{{}}, quickConfig()},
		{"two entries", 16, []keys.Value{{}, keys.FromUint64(1 << 15)}, quickConfig()},
		{"empty responsibilities", 16, []keys.Value{{}, keys.FromUint64(3)}, DefaultConfig()},
		{"collapsed 128-bit boundaries", 128, collapsed, quickConfig()},
		{"collapsed, one submodel", 128, collapsed, Config{StageWidths: []int{1}}},
	}
	for _, c := range cases {
		ix := &sliceIndex{lows: c.lows}
		m, _, err := Train(ix, c.width, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok, witness := m.Verify(ix); !ok {
			t.Fatalf("%s: Verify failed at key %v", c.name, witness)
		}
		assertLookupsCorrect(t, m, ix, c.width, 200)
	}

	// A responsibility of several intervals, handed over out of order: the
	// bound holds at every key of every interval.
	ix := skewedIndex(rand.New(rand.NewSource(25)), 14, 200)
	ivs := []interval{
		{Lo: keys.FromUint64(9000), Hi: keys.FromUint64(12000)},
		{Lo: keys.FromUint64(100), Hi: keys.FromUint64(1700)},
		{Lo: keys.FromUint64(5000), Hi: keys.FromUint64(5000)},
	}
	lut := trainSubmodel(ix, 14, ivs, true)
	for _, iv := range ivs {
		for k := iv.Lo; !iv.Hi.Less(k); k = k.Inc() {
			d := scaleClamp(lut.Eval(unitOf(14, k)), ix.Len()) - Find(ix, k)
			if d < 0 {
				d = -d
			}
			if d > int(lut.Err) {
				t.Fatalf("multi-interval: key %v off by %d, bound %d", k, d, lut.Err)
			}
		}
	}
	if lut.Err > 8 {
		t.Fatalf("multi-interval: bound %d over 200 entries", lut.Err)
	}
}

func TestTrainDeterministic(t *testing.T) {
	ix := skewedIndex(rand.New(rand.NewSource(24)), 24, 3000)
	cfg := quickConfig()
	var first []byte
	for _, workers := range []int{1, 1, 4} {
		cfg.Workers = workers
		m, _, err := Train(ix, 24, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if _, err := m.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b.Bytes()
		} else if !bytes.Equal(first, b.Bytes()) {
			t.Fatalf("training at %d workers is not byte-identical to the first run", workers)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ix := skewedIndex(rng, 24, 300)
	m, _, err := Train(ix, 24, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != m.Width || got.N != m.N {
		t.Fatalf("header mismatch: %d/%d vs %d/%d", got.Width, got.N, m.Width, m.N)
	}
	// Identical predictions on a sample.
	for q := 0; q < 500; q++ {
		k := keys.FromUint64(uint64(rng.Intn(1 << 24)))
		if m.Predict(k) != got.Predict(k) {
			t.Fatalf("prediction mismatch at %v", k)
		}
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXXXX"),
		append([]byte("RQRMI1"), 0, 0), // truncated
	}
	for i, b := range cases {
		if _, err := ReadModel(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestModelValidate(t *testing.T) {
	bad := []*Model{
		{},
		{N: 10, Stages: [][]LUT{{constLUT(0), constLUT(0)}}},                    // stage0 width 2
		{N: 0, Stages: [][]LUT{{constLUT(0)}}},                                  // N=0
		{N: 10, Stages: [][]LUT{{{A: []float32{1}, B: nil}}}},                   // shape
		{N: 10, Stages: [][]LUT{{{A: []float32{1}, B: []float32{1}, Err: -1}}}}, // negative err
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d accepted", i)
		}
	}
}

func TestSizeBytesSmall(t *testing.T) {
	// The paper's 1/4/64 model is ~8KB; our LUT encoding must stay in that
	// ballpark (69 submodels × ≤9 segments × 12B ≈ 7.5KB max).
	ix := uniformIndex(32, 5000)
	cfg := quickConfig()
	cfg.StageWidths = []int{1, 4, 64}
	m, _, err := Train(ix, 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.SizeBytes() > 10*1024 {
		t.Fatalf("model size %d bytes exceeds 10KB", m.SizeBytes())
	}
}

func TestPredictionSubmodelInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix := skewedIndex(rng, 20, 200)
	m, _, err := Train(ix, 20, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		p := m.Predict(keys.FromUint64(uint64(rng.Intn(1 << 20))))
		if p.Submodel < 0 || p.Submodel >= len(m.Stages[len(m.Stages)-1]) {
			t.Fatalf("submodel %d out of range", p.Submodel)
		}
		if p.Index < 0 || p.Index >= ix.Len() {
			t.Fatalf("index %d out of range", p.Index)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	ix := uniformIndex(32, 100000)
	m, _, err := Train(ix, 32, quickConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([]keys.Value, 1024)
	for i := range qs {
		qs[i] = keys.FromUint64(uint64(rng.Uint32()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(qs[i&1023])
	}
}

func BenchmarkLookup(b *testing.B) {
	ix := uniformIndex(32, 100000)
	m, _, err := Train(ix, 32, quickConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([]keys.Value, 1024)
	for i := range qs {
		qs[i] = keys.FromUint64(uint64(rng.Uint32()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(ix, qs[i&1023])
	}
}

func BenchmarkTrain10K(b *testing.B) {
	ix := uniformIndex(32, 10000)
	cfg := quickConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(ix, 32, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// fitSquare fits u ↦ u² on [0,1): a submodel with every unit in use.
func fitSquare() *mlp {
	var pts []point
	for i := 0; i < 256; i++ {
		u := float64(i) / 256
		pts = append(pts, point{x: u, y: 1e6 * u * u})
	}
	return fitMLP(pts, 1e6)
}

// The §5.2.2 inference ablation: the compiled LUT replaces the 26-FP-op MLP
// evaluation with a segment lookup plus one MAC. These two benchmarks
// compare the software cost of both paths on the same trained submodel.
func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := fitSquare()
	us := make([]float64, 1024)
	for i := range us {
		us[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forward(us[i&1023])
	}
}

func BenchmarkLUTEval(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := fitSquare()
	lut := m.compile()
	us := make([]float32, 1024)
	for i := range us {
		us[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lut.Eval(us[i&1023])
	}
}
