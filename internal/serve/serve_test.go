package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

func quickConfig(bucketized bool) core.Config {
	mc := rqrmi.DefaultConfig()
	mc.StageWidths = []int{1, 2, 8}
	cfg := core.Config{Model: mc}
	if bucketized {
		cfg.BucketSize = 8
	}
	return cfg
}

func buildTestRuleSet(t testing.TB) *lpm.RuleSet {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	seen := map[string]bool{}
	var rules []lpm.Rule
	for len(rules) < 300 {
		length := 1 + rng.Intn(32)
		prefix := keys.FromUint64(rng.Uint64() & (1<<32 - 1))
		prefix = prefix.Shr(uint(32 - length)).Shl(uint(32 - length))
		id := fmt.Sprintf("%v/%d", prefix, length)
		if seen[id] {
			continue
		}
		seen[id] = true
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: uint64(len(rules) + 1)})
	}
	rs, err := lpm.NewRuleSet(32, rules)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// buildOneShard builds the degenerate topology over the test rule-set — one
// shard, nothing pending, no committer — and closes it with the test.
func buildOneShard(t testing.TB, bucketized bool) *shard.ShardedUpdatable {
	t.Helper()
	sh, err := shard.BuildUpdatable(buildTestRuleSet(t), quickConfig(bucketized), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh
}

// buildTestServer serves one shard through reg and returns the shard's engine
// beside it, for tests that compare endpoint answers with direct lookups.
func buildTestServer(t testing.TB, bucketized bool, reg *telemetry.Registry) (*Server, *core.Engine) {
	t.Helper()
	sh := buildOneShard(t, bucketized)
	return NewSharded(sh, reg), sh.Engine(0)
}

func TestParseKey(t *testing.T) {
	cases := []struct {
		in    string
		width int
		want  keys.Value
		ok    bool
	}{
		{"10.1.2.3", 32, keys.FromUint64(0x0a010203), true},
		{"255.255.255.255", 32, keys.FromUint64(0xffffffff), true},
		{"167837955", 32, keys.FromUint64(167837955), true},
		{"0x0a010203", 32, keys.FromUint64(0x0a010203), true},
		{"dead", 32, keys.FromUint64(0xdead), true}, // hex fallback for a..f
		{"2001:db8::1", 128, keys.FromParts(0x20010db800000000, 1), true},
		{"::1", 128, keys.FromUint64(1), true},
		{"0x00010002000300040005000600070008", 128, keys.FromParts(0x0001000200030004, 0x0005000600070008), true},
		{"", 32, keys.Value{}, false},
		{"10.1.2.999", 32, keys.Value{}, false},
		{"2001:db8::1", 32, keys.Value{}, false}, // IPv6 on 32-bit engine
		{"zz", 32, keys.Value{}, false},
		{"0x" + strings.Repeat("f", 33), 128, keys.Value{}, false},
		{"10.1.2.3", 128, keys.Value{}, false}, // IPv4 on 128-bit engine
		{"1:2:3", 128, keys.Value{}, false},    // too few groups, no ::
		{"1::2::3", 128, keys.Value{}, false},  // two ::
		{"::1::", 128, keys.Value{}, false},
		{"01.2.3.4", 32, keys.Value{}, false}, // leading zero
		{"fe80::1%eth0", 128, keys.Value{}, false},
	}
	for _, c := range cases {
		got, err := parseKey(c.in, c.width)
		if c.ok != (err == nil) {
			t.Errorf("parseKey(%q, %d): err = %v, want ok=%v", c.in, c.width, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseKey(%q, %d) = %v, want %v", c.in, c.width, got, c.want)
		}
	}
}

func TestEndpoints(t *testing.T) {
	s, e := buildTestServer(t, true, telemetry.Default)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// /healthz reports the engine's shape.
	code, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// /lookup agrees with a direct engine query.
	code, body = get("/lookup?key=10.1.2.3")
	if code != http.StatusOK {
		t.Fatalf("/lookup = %d %q", code, body)
	}
	var lr lookupResponse
	if err := json.Unmarshal([]byte(body), &lr); err != nil {
		t.Fatalf("/lookup body: %v", err)
	}
	action, ok := e.Lookup(keys.FromUint64(0x0a010203))
	if lr.Matched != ok || (ok && lr.Action != action) {
		t.Fatalf("/lookup (%d,%v) disagrees with engine (%d,%v)", lr.Action, lr.Matched, action, ok)
	}

	// Missing and malformed keys are client errors.
	if code, _ = get("/lookup"); code != http.StatusBadRequest {
		t.Fatalf("/lookup without key = %d, want 400", code)
	}
	if code, _ = get("/trace?key=zz"); code != http.StatusBadRequest {
		t.Fatalf("/trace?key=zz = %d, want 400", code)
	}

	// /trace returns the paper-unit trace and the key's record, timed
	// through the three bucketized stages.
	code, body = get("/trace?key=10.1.2.3")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d %q", code, body)
	}
	var tr traceResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace body: %v", err)
	}
	if tr.Record.TotalNs <= 0 || tr.Record.Key != tr.Lookup.Key {
		t.Fatalf("/trace record missing timing or key: %q", body)
	}
	if !tr.Lookup.BucketRead || tr.Lookup.DRAMBytes <= 0 || !tr.Record.BucketRead {
		t.Fatalf("/trace on a bucketized engine reported no DRAM fetch: %+v", tr)
	}
	for _, stage := range telemetry.StageNames {
		if tr.Record.StagesNs[stage] <= 0 {
			t.Fatalf("/trace record stages = %v, want all of %v", tr.Record.StagesNs, telemetry.StageNames)
		}
	}
	for _, field := range []string{`"predicted_index":`, `"submodel":`, `"range_index":`, `"spill_read":`, `"dram_bytes":`} {
		if !strings.Contains(body, field) {
			t.Fatalf("/trace lookup section lacks %s: %q", field, body)
		}
	}

	// /metrics is a Prometheus scrape carrying the engine counters, the
	// derived ones among them.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE neurolpm_lookups_total counter",
		"# TYPE neurolpm_bucket_fetches_total counter",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// pprof answers; the registry has one rendering, /metrics, and no expvar.
	if code, _ = get("/debug/vars"); code != http.StatusNotFound {
		t.Fatalf("/debug/vars = %d, want 404", code)
	}
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestConcurrentLookupsAndScrapes hammers /lookup from many goroutines while
// another scrapes /metrics and /trace — the acceptance scenario, run under
// -race in CI.
func TestConcurrentLookupsAndScrapes(t *testing.T) {
	s, _ := buildTestServer(t, true, telemetry.Default)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	l0 := scrapeLookups(t, srv.URL)

	const workers, per = 8, 60
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/lookup?key=%d", srv.URL, rng.Uint32()))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("lookup status %d", resp.StatusCode)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, path := range []string{"/metrics", "/trace?key=10.0.0.1"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s status %d", path, resp.StatusCode)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every HTTP lookup and the 20 traces hit the engine exactly once.
	if d := scrapeLookups(t, srv.URL) - l0; d < workers*per+20 {
		t.Fatalf("lookup counter delta = %d, want >= %d", d, workers*per+20)
	}
}

// scrapeLookups reads neurolpm_lookups_total from the /metrics at url.
func scrapeLookups(t *testing.T, url string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return seriesValue(t, string(body), "neurolpm_lookups_total")
}

// counter renders reg as /metrics does and returns the named counter.
func counter(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	return seriesValue(t, b.String(), name)
}

// seriesValue returns the named unlabelled series of a /metrics text.
func seriesValue(t *testing.T, text, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("/metrics lists no %s", name)
	return 0
}

// TestTraceTimesEveryKey: /trace times its key whatever the flight
// recorder's stride, leaves the recorder's ring alone when the recorder did
// not draw the key, and reports the paper-unit trace the engine's own
// LookupMem gives for it.
func TestTraceTimesEveryKey(t *testing.T) {
	prev := telemetry.Flight.SampleEvery()
	telemetry.Flight.SetSampleEvery(0)
	t.Cleanup(func() { telemetry.Flight.SetSampleEvery(prev) })
	s, e := buildTestServer(t, true, telemetry.NewRegistry())
	h := s.Handler()

	before := telemetry.Flight.Recorded()
	var tr traceResponse
	if rec := getJSON(t, h, "/trace?key=10.1.2.3", &tr); rec.Code != http.StatusOK {
		t.Fatalf("/trace = %d %s", rec.Code, rec.Body)
	}
	if got := telemetry.Flight.Recorded(); got != before {
		t.Fatalf("/trace at stride 0 committed %d records", got-before)
	}
	if tr.Record.TotalNs <= 0 || len(tr.Record.StagesNs) != telemetry.NumStages {
		t.Fatalf("/trace at stride 0 returned an untimed record: %+v", tr.Record)
	}
	want := e.LookupMem(keys.FromUint64(0x0a010203), cachesim.Null{})
	got := tr.Lookup
	if got.Matched != want.Matched || got.Action != want.Action || got.PredictedIndex != want.Prediction.Index ||
		got.Submodel != want.Prediction.Submodel || got.ErrorBound != want.Prediction.Err ||
		got.SRAMProbes != want.SRAMProbes || got.RangeIndex != want.RangeIndex ||
		got.SpillRead != want.Spilled || got.DRAMBytes != want.DRAMBytes {
		t.Fatalf("/trace lookup %+v, engine trace %+v", got, want)
	}
	if tr.Record.Action != want.Action || tr.Record.Matched != want.Matched ||
		int(tr.Record.Probes) != want.SRAMProbes || int(tr.Record.ErrBound) != want.Prediction.Err {
		t.Fatalf("/trace record %+v disagrees with the engine trace %+v", tr.Record, want)
	}
}

// TestTraceParsesIPv6 serves a 128-bit engine: /trace answers an IPv6 key
// and refuses a malformed one.
func TestTraceParsesIPv6(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rules := []lpm.Rule{{Prefix: keys.FromParts(0x20010db800000000, 0), Len: 32, Action: 1}}
	seen := map[string]bool{}
	for len(rules) < 100 {
		length := 33 + rng.Intn(96) // longer than 2001:db8::/32, so none covers it
		prefix := keys.FromParts(rng.Uint64(), rng.Uint64()).Shr(uint(128 - length)).Shl(uint(128 - length))
		id := fmt.Sprintf("%v/%d", prefix, length)
		if seen[id] || prefix.Shr(96) == keys.FromUint64(0x20010db8) {
			continue
		}
		seen[id] = true
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: uint64(len(rules) + 1)})
	}
	rs, err := lpm.NewRuleSet(128, rules)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.BuildUpdatable(rs, quickConfig(true), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	h := NewSharded(sh, telemetry.NewRegistry()).Handler()

	var tr traceResponse
	if rec := getJSON(t, h, "/trace?key=2001:db8::1", &tr); rec.Code != http.StatusOK {
		t.Fatalf("/trace?key=2001:db8::1 = %d %s", rec.Code, rec.Body)
	}
	if !tr.Lookup.Matched || tr.Lookup.Action != 1 {
		t.Fatalf("/trace?key=2001:db8::1 answered %+v, want action 1", tr.Lookup)
	}
	for _, bad := range []string{"1:2:3", "1::2::3", "::1::", "10.1.2.3"} {
		if rec := getJSON(t, h, "/trace?key="+bad, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("/trace?key=%s = %d, want 400", bad, rec.Code)
		}
	}
}
