package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"neurolpm/internal/wire"
)

// TestMain lets the test binary stand in for the benchmark when a traced
// serving run re-execs itself as the loopback echo child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-echo-child" {
		if err := echoServe(); err != nil {
			fatal(err)
		}
		return
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.50, 50}, {0.99, 100}, {0.90, 90}, {0.91, 100}, {0.10, 10}, {0.001, 10}, {1, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(v), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
}

func TestCutWindows(t *testing.T) {
	const ms = int64(time.Millisecond)
	// Two 100 ms windows after a 100 ms warm-up, limit 10 ms; the first 60 ms
	// of each window are the workload's, the last 40 ms the reference's.
	samples := []sample{
		{due: 50 * ms, done: 51 * ms, ok: true},              // warm-up: ignored
		{due: 110 * ms, done: 111 * ms, ok: true},            // window 0, 1 ms
		{due: 120 * ms, done: 123 * ms, ok: true},            // window 0, 3 ms
		{due: 130 * ms, done: 150 * ms, ok: true},            // window 0, 20 ms: over the limit
		{due: 140 * ms, done: 141 * ms},                      // window 0, wrong answer: misses the limit
		{due: 150 * ms},                                      // window 0, never answered
		{due: 170 * ms, done: 174 * ms, ok: true, ref: true}, // window 0's reference, 4 ms
		{due: 180 * ms, done: 182 * ms, ok: true, ref: true}, // 2 ms
		{due: 210 * ms, done: 212 * ms, ok: true},            // window 1, 2 ms
		{due: 259 * ms, done: 305 * ms, ok: true},            // window 1 by due time, completes after the span
		{due: 270 * ms, done: 276 * ms, ok: true, ref: true}, // window 1's reference, 6 ms
	}
	ws, ref := cutWindows(samples, 100*ms, 300*ms, 100*ms, 60*ms, 10*ms)
	if want := []float64{3 / 0.06, 2 / 0.06}; !reflect.DeepEqual(ws.QPS, want) {
		t.Errorf("QPS = %v, want %v", ws.QPS, want)
	}
	if want := []float64{1000, 2000}; !reflect.DeepEqual(ws.P50, want) {
		t.Errorf("P50 = %v us, want %v", ws.P50, want)
	}
	if want := []float64{20000, 46000}; !reflect.DeepEqual(ws.P99, want) {
		t.Errorf("P99 = %v us, want %v", ws.P99, want)
	}
	if want := []float64{2.0 / 5, 1.0 / 2}; !reflect.DeepEqual(ws.Within, want) {
		t.Errorf("Within = %v, want %v", ws.Within, want)
	}
	if want := []float64{2 / 0.04, 1 / 0.04}; !reflect.DeepEqual(ref.QPS, want) {
		t.Errorf("reference QPS = %v, want %v", ref.QPS, want)
	}
	if want := []float64{2000, 6000}; !reflect.DeepEqual(ref.P50, want) {
		t.Errorf("reference P50 = %v us, want %v", ref.P50, want)
	}
	if len(ws.all) != 6 || len(ref.all) != 3 {
		t.Errorf("%d and %d latencies, want 6 and 3", len(ws.all), len(ref.all))
	}
	// Nearest rank: p99.9 of six latencies is the largest, 46 ms.
	if got := ws.p999(); got != 46000 {
		t.Errorf("p999 = %v us, want 46000", got)
	}
	// The workload's p50 over the reference's, window by window: 1/2 and
	// 2/6; the median of the two, at a nominal 3 ms.
	if got, want := against(ws.P50, ref.P50, 3000), (0.5+1.0/3)/2*3000; math.Abs(got-want) > 1e-9 {
		t.Errorf("against = %v, want %v", got, want)
	}
	if got := against(ws.P50, nil, 3000); got != 1500 {
		t.Errorf("against nothing = %v, want the plain median 1500", got)
	}

	// Without a reference every sample is the workload's; a window with no
	// reference traffic in a run that has one is dropped from both sides.
	plain, none := cutWindows(samples[:6], 100*ms, 300*ms, 100*ms, 100*ms, 10*ms)
	if len(plain.QPS) != 1 || plain.QPS[0] != 30 || len(none.QPS) != 0 {
		t.Errorf("no reference: QPS = %v, reference %v", plain.QPS, none.QPS)
	}
	ws2, ref2 := cutWindows(samples[:9], 100*ms, 300*ms, 100*ms, 60*ms, 10*ms)
	if len(ws2.QPS) != 1 || len(ref2.QPS) != 1 {
		t.Errorf("a window without reference traffic was kept: %v, %v", ws2.QPS, ref2.QPS)
	}
	ws.merge(ws2)
	if len(ws.QPS) != 3 || len(ws.all) != 10 {
		t.Errorf("merged: %d windows with %d latencies, want 3 with 10", len(ws.QPS), len(ws.all))
	}
}

func TestRefTable(t *testing.T) {
	in, err := makeInputs(2, 2000, 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefTable(in.rs)
	if !sort.SliceIsSorted(ref.starts, func(i, j int) bool { return ref.starts[i] < ref.starts[j] }) {
		t.Fatal("prefixes not ascending")
	}
	for _, k := range in.trace {
		var want uint64
		for i, s := range ref.starts {
			if s <= uint32(k.Lo) {
				want = ref.actions[i]
			}
		}
		if got := ref.find(k); got != want {
			t.Fatalf("find(%v) = %d, want %d", k, got, want)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := makeInputs(7, 3000, 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(7, 3000, 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.rs.Format() != b.rs.Format() {
		t.Error("same seed, different rule-sets")
	}
	if !reflect.DeepEqual(a.trace, b.trace) || !reflect.DeepEqual(a.want, b.want) {
		t.Error("same seed, different trace or oracle answers")
	}
	ca, err := makeChurn(a, 7, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := makeChurn(b, 7, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ca.updates, cb.updates) || !reflect.DeepEqual(ca.sites, cb.sites) {
		t.Error("same seed, different update stream")
	}
	if len(ca.sites) != churnSites {
		t.Errorf("%d flap sites, want %d", len(ca.sites), churnSites)
	}
	if last := ca.updates[len(ca.updates)-1].At; last < 20*time.Second {
		t.Errorf("stream ends at %v, inside the 20s run it must outlast", last)
	}
	sa := poisson(rand.New(rand.NewSource(11)), 40000, time.Second)
	sb := poisson(rand.New(rand.NewSource(11)), 40000, time.Second)
	if !reflect.DeepEqual(sa, sb) {
		t.Error("same seed, different arrival schedule")
	}
	if n := len(sa); n < 39000 || n > 41000 {
		t.Errorf("%d arrivals in 1s at 40000/s", n)
	}
	for i := 1; i < len(sa); i++ {
		if sa[i] < sa[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	c, err := makeInputs(8, 3000, 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.rs.Format() == c.rs.Format() || reflect.DeepEqual(a.trace, c.trace) {
		t.Error("different seeds, same inputs")
	}
}

func TestChurnLegalAnswers(t *testing.T) {
	in, err := makeInputs(3, 3000, 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := makeChurn(in, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a := churnActionBase + 5
	for _, r := range []wire.Result{ch.base[5], {Action: a, Matched: true}, {Action: a ^ 1, Matched: true}} {
		if !ch.legal(5, r) {
			t.Errorf("legal(5, %+v) = false", r)
		}
	}
	// The torn answer of ROADMAP item 1 is a miss for a key a rule covers.
	torn := wire.Result{}
	if ch.base[5] != torn && ch.legal(5, torn) {
		t.Error("a miss is legal for a covered flap site")
	}
	if ch.legal(5, wire.Result{Action: a + 1, Matched: true}) && ch.base[5].Action != a+1 {
		t.Error("a neighbouring site's action is legal")
	}
}

func TestProcParsers(t *testing.T) {
	// The command field holds spaces and a ')'.
	stat := "4242 (lpm serve) x) S 1 4242 4242 0 -1 4194560 9000 0 3 0 1234 567 0 0 20 0 7 0 100 2000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	ut, st, err := parseStat(stat)
	if err != nil || ut != 1234 || st != 567 {
		t.Errorf("parseStat = %d, %d, %v; want 1234, 567", ut, st, err)
	}
	if _, _, err := parseStat("garbage"); err == nil {
		t.Error("parseStat accepted text with no command field")
	}
	if _, _, err := parseStat("1 (x) S 1 2"); err == nil {
		t.Error("parseStat accepted a truncated line")
	}
	status := "Name:\tlpmserve\nVmPeak:\t  900000 kB\nVmHWM:\t  215040 kB\nVmRSS:\t  200000 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t25\n"
	hwm, v, nv := parseStatus(status)
	if hwm != 215040 || v != 1500 || nv != 25 {
		t.Errorf("parseStatus = %d, %d, %d; want 215040, 1500, 25", hwm, v, nv)
	}
	if hwm, v, nv = parseStatus("Name:\tx\n"); hwm != 0 || v != 0 || nv != 0 {
		t.Error("absent fields must read as zero")
	}
	m, err := parseMetrics(strings.NewReader("# HELP a b\n# TYPE a counter\na_total 12\nlabelled{shard=\"0\"} 3\nb 1.5e+03\n"))
	if err != nil || m["a_total"] != 12 || m["b"] != 1500 || len(m) != 2 {
		t.Errorf("parseMetrics = %v, %v", m, err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// Block 0: parent 1000 ns over 10 keys with children of 300 and 200 ns;
	// block 1: parent 2000 ns with children of 500 and 500 ns; one root span
	// with no children.
	spans := []span{
		{Trace: 0, ID: 1, Name: "p", Start: 0, End: 1000, N: 10},
		{Trace: 0, ID: 2, Parent: 1, Name: "a", Start: 1000, End: 1300, N: 10},
		{Trace: 0, ID: 3, Parent: 1, Name: "b", Start: 1300, End: 1500, N: 10},
		{Trace: 1, ID: 4, Name: "p", Start: 2000, End: 4000, N: 10},
		{Trace: 1, ID: 5, Parent: 4, Name: "a", Start: 4000, End: 4500, N: 10},
		{Trace: 1, ID: 6, Parent: 4, Name: "b", Start: 4500, End: 5000, N: 10},
		{Trace: 1, ID: 7, Name: "lone", Start: 5000, End: 5100, N: 10},
	}
	dur, self := perKey(spans)
	for name, want := range map[string]float64{"p": 150, "p/a": 40, "p/b": 35, "lone": 10} {
		if dur[name] != want {
			t.Errorf("dur[%s] = %v, want %v", name, dur[name], want)
		}
	}
	// Self: (1000-500)/10 = 50 and (2000-1000)/10 = 100; median 75.
	if self["p"] != 75 {
		t.Errorf("self[p] = %v, want 75", self["p"])
	}
	if self["p/a"] != dur["p/a"] || self["lone"] != dur["lone"] {
		t.Error("a span without children is all self time")
	}
}

func TestTracerWritesJSONLines(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	id := tr.add(3, 0, "core.lookup", now, now.Add(time.Microsecond), 256)
	tr.add(4, id, "rqrmi.predict", now.Add(time.Microsecond), now.Add(2*time.Microsecond), 256)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var s span
	if err := json.Unmarshal(lines[1], &s); err != nil {
		t.Fatal(err)
	}
	if s.Parent != id || s.Name != "rqrmi.predict" || s.N != 256 || s.End-s.Start != 1000 {
		t.Errorf("second span = %+v", s)
	}
}

// repoSpec loads the BENCHMARK.json this package is named by.
func repoSpec(t *testing.T) (*spec, string) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return sp, root
}

func TestSpecWithinContract(t *testing.T) {
	sp, _ := repoSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(d metricDef, bounded bool) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q invalid or reused", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q invalid", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range sp.EndToEnd {
		check(d, true)
	}
	for _, d := range sp.PerLayer {
		check(d, false)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	want := []string{"lib_zipf", "lib_uniform", "wire_pingpong", "wire_burst", "wire_open", "wire_churn"}
	var got []string
	for _, w := range sp.Workloads {
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads = %v, want %v", got, want)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", sp.RunSeconds)
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(sp.EndToEnd), len(sp.PerLayer))
	}
}

func TestCompareSets(t *testing.T) {
	sp := &spec{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}},
		EndToEnd: []metricDef{
			{Name: "lat", Unit: "us", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	dir := t.TempDir()
	write := func(name string, lat, rate []float64, failed int64) string {
		var s runSet
		for i := range lat {
			s.Runs = append(s.Runs, setRun{Workload: "w", Seed: int64(i), Attempted: 100, Failed: failed,
				Metrics: map[string]float64{"lat": lat[i], "rate": rate[i]}})
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steady := []float64{100, 101, 99, 100, 102, 98}
	base := write("a.json", steady, steady, 0)
	for _, c := range []struct {
		name      string
		lat, rate []float64
		failed    int64
		code      int
		verdicts  []string
	}{
		{"same", steady, steady, 0, 0, []string{"unchanged", "unchanged"}},
		{"slower", []float64{120, 121, 119, 120, 122, 118}, steady, 0, 1, []string{"REGRESSION", "unchanged"}},
		{"fewer", steady, []float64{80, 81, 79, 80, 82, 78}, 0, 1, []string{"unchanged", "REGRESSION"}},
		{"faster", []float64{50, 51, 49, 50, 52, 48}, steady, 0, 0, []string{"better", "unchanged"}},
		{"noisy", []float64{70, 130, 95, 105, 60, 140}, steady, 0, 0, []string{"unresolved", "unchanged"}},
		{"failing", steady, steady, 1, 1, []string{"unchanged", "unchanged"}},
	} {
		var out bytes.Buffer
		code := compareSets(sp, base, write(c.name+".json", c.lat, c.rate, c.failed), &out)
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		lines := strings.Split(out.String(), "\n")
		for i, v := range c.verdicts {
			if f := strings.Fields(lines[i+1]); f[len(f)-1] != v {
				t.Errorf("%s: verdict %d = %q, want %q", c.name, i, f[len(f)-1], v)
			}
		}
	}
}

// TestSmoke runs every workload end to end at a small scale — 20 000 rules,
// one library window or two serving windows per round — untraced and traced, against a freshly built
// lpmserve. No operation may fail and every named metric must be present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives lpmserve")
	}
	sp, root := repoSpec(t)
	scratch := t.TempDir()
	bin, err := buildServer(root, filepath.Join(scratch, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			// The traced run differs between workloads only in the traffic
			// it sends; one library and the richest serving workload cover it.
			if traced && w.Name != "lib_zipf" && w.Name != "wire_churn" {
				continue
			}
			cfg := runConfig{
				workload: w.Name, seed: 5, span: rounds * libWindow, warm: 100 * time.Millisecond, trace: traced,
				rules: 20000, keys: 1 << 16, root: root, scratch: scratch, lpmserve: bin,
			}
			res, err := runWorkload(sp, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := sp.EndToEnd
			if traced {
				defs = sp.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, d.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
		}
	}
}
