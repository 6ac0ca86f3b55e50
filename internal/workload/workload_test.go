package workload

import (
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
)

func TestGenerateCounts(t *testing.T) {
	for name, p := range Profiles() {
		rs, err := Generate(p, 2000, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rs.Len() != 2000 {
			t.Errorf("%s: generated %d rules", name, rs.Len())
		}
		if rs.Width != p.Width {
			t.Errorf("%s: width %d", name, rs.Width)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(RIPE(), 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(RIPE(), 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			t.Fatalf("rule %d differs between same-seed runs", i)
		}
	}
	c, err := Generate(RIPE(), 500, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Rules {
		if a.Rules[i] == c.Rules[i] {
			same++
		}
	}
	if same == len(a.Rules) {
		t.Fatal("different seeds produced identical rule-sets")
	}
}

// TestRIPEShape checks the calibration: /24 dominates and the /16 secondary
// mode exists, matching Fig 2's routing curve.
func TestRIPEShape(t *testing.T) {
	rs, err := Generate(RIPE(), 20000, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := rs.PrefixHistogram()
	frac24 := float64(h[24]) / float64(rs.Len())
	if frac24 < 0.4 || frac24 > 0.65 {
		t.Errorf("/24 fraction %.2f outside BGP-like range", frac24)
	}
	if h[16] < h[17] {
		t.Error("/16 mode missing")
	}
	// Almost everything is ≤ /24.
	le24 := 0
	for l := 0; l <= 24; l++ {
		le24 += h[l]
	}
	if float64(le24)/float64(rs.Len()) < 0.95 {
		t.Errorf("≤/24 fraction %.2f too low", float64(le24)/float64(rs.Len()))
	}
}

// TestSnortShape checks the string-matching distribution is broad, unlike
// routing (Fig 2's contrast).
func TestSnortShape(t *testing.T) {
	rs, err := Generate(Snort(), 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := rs.PrefixHistogram()
	nonEmpty := 0
	for l := 8; l <= 48; l++ {
		if h[l] > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 30 {
		t.Errorf("only %d distinct lengths; string matching should be broad", nonEmpty)
	}
	// No single length dominates the way /24 does in routing.
	max := 0
	for _, c := range h {
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(rs.Len()) > 0.25 {
		t.Errorf("a single length holds %.2f of rules", float64(max)/float64(rs.Len()))
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Profile{Width: 0}, 10, 1); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := Generate(RIPE(), 0, 1); err == nil {
		t.Error("zero rules accepted")
	}
	p := RIPE()
	p.LengthWeights = map[int]float64{}
	if _, err := Generate(p, 10, 1); err == nil {
		t.Error("empty distribution accepted")
	}
	p.LengthWeights = map[int]float64{8: -1}
	if _, err := Generate(p, 10, 1); err == nil {
		t.Error("negative weight accepted")
	}
	// A profile too narrow for the requested count must fail, not hang.
	narrow := Profile{
		Name: "narrow", Width: 8,
		LengthWeights: map[int]float64{4: 1},
		Clusters:      2, Actions: 2,
	}
	if _, err := Generate(narrow, 1000, 1); err == nil {
		t.Error("impossible count accepted")
	}
}

func TestExpansionRealistic(t *testing.T) {
	// §10.5: real rule-sets expand ~18% on average, ≤32% worst case. The
	// synthetic families must stay in a comparable regime (well under the
	// 2× theoretical bound).
	for _, p := range []Profile{RIPE(), routeViews(), stanford()} {
		rs, err := Generate(p, 10000, 4)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := ranges.Convert(rs)
		if err != nil {
			t.Fatal(err)
		}
		st := arr.Expansion(rs.Len())
		if st.Expansion < 0 || st.Expansion > 0.9 {
			t.Errorf("%s: expansion %.2f unrealistic", p.Name, st.Expansion)
		}
	}
}

func TestGenerateTraceBasic(t *testing.T) {
	rs, err := Generate(RIPE(), 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateTrace(rs, DefaultTrace(5000, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 5000 {
		t.Fatalf("trace length %d", len(trace))
	}
	dom := keys.NewDomain(32)
	for _, k := range trace {
		if !dom.Contains(k) {
			t.Fatalf("trace key %v outside domain", k)
		}
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	rs, err := Generate(RIPE(), 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := GenerateTrace(rs, DefaultTrace(1000, 8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(rs, DefaultTrace(1000, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace differs at %d", i)
		}
	}
}

func TestGenerateTraceLocality(t *testing.T) {
	rs, err := Generate(RIPE(), 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	local, err := GenerateTrace(rs, TraceConfig{Queries: 20000, ZipfS: 1.2, Locality: 0.9, Window: 64, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := GenerateTrace(rs, TraceConfig{Queries: 20000, ZipfS: 1.2, Locality: 0, Window: 64, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if u1, u2 := distinct(local), distinct(cold); u1 >= u2 {
		t.Fatalf("locality did not reduce distinct keys: %d vs %d", u1, u2)
	}
}

func distinct(ks []keys.Value) int {
	set := map[keys.Value]struct{}{}
	for _, k := range ks {
		set[k] = struct{}{}
	}
	return len(set)
}

func TestGenerateTraceMatchable(t *testing.T) {
	// Most trace keys should hit some rule (traffic goes to installed
	// destinations).
	rs, err := Generate(RIPE(), 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateTrace(rs, DefaultTrace(5000, 12))
	if err != nil {
		t.Fatal(err)
	}
	oracle := lpm.NewTrieMatcher(rs)
	hits := 0
	for _, k := range trace {
		if _, ok := oracle.Lookup(k); ok {
			hits++
		}
	}
	if float64(hits)/float64(len(trace)) < 0.5 {
		t.Fatalf("only %d/%d trace keys match a rule", hits, len(trace))
	}
}

func TestGenerateTraceErrors(t *testing.T) {
	rs, err := Generate(RIPE(), 100, 13)
	if err != nil {
		t.Fatal(err)
	}
	bad := []TraceConfig{
		{Queries: 0, ZipfS: 1.2},
		{Queries: 10, ZipfS: 1.0},
		{Queries: 10, ZipfS: 1.2, Locality: 1.5},
		{Queries: 10, ZipfS: 1.2, Locality: -0.1},
	}
	for i, cfg := range bad {
		if _, err := GenerateTrace(rs, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestUniformTrace(t *testing.T) {
	trace := UniformTrace(32, 1000, 1)
	if len(trace) != 1000 {
		t.Fatalf("length %d", len(trace))
	}
	dom := keys.NewDomain(32)
	for _, k := range trace {
		if !dom.Contains(k) {
			t.Fatalf("key %v outside domain", k)
		}
	}
	if distinct(trace) < 900 {
		t.Fatal("uniform trace suspiciously repetitive")
	}
}

func BenchmarkGenerate100K(b *testing.B) {
	p := RIPE()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, 100000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrace1M(b *testing.B) {
	rs, err := Generate(RIPE(), 10000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTrace(rs, DefaultTrace(1000000, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
