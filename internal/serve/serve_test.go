package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

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
	}
	for _, c := range cases {
		got, err := ParseKey(c.in, c.width)
		if c.ok != (err == nil) {
			t.Errorf("ParseKey(%q, %d): err = %v, want ok=%v", c.in, c.width, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseKey(%q, %d) = %v, want %v", c.in, c.width, got, c.want)
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

	// /trace returns the span with the three bucketized stages.
	code, body = get("/trace?key=10.1.2.3")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d %q", code, body)
	}
	var tr traceResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace body: %v", err)
	}
	if tr.Span == nil || tr.Span.TotalNs <= 0 {
		t.Fatalf("/trace span missing timing: %q", body)
	}
	if !tr.Lookup.BucketRead || tr.Lookup.DRAMBytes <= 0 {
		t.Fatalf("/trace on a bucketized engine reported no DRAM fetch: %+v", tr.Lookup)
	}
	var stages []string
	for _, st := range tr.Span.Stages {
		stages = append(stages, st.Name)
	}
	want := []string{"inference", "secondary-search", "bucket-fetch"}
	if strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Fatalf("/trace stages = %v, want %v", stages, want)
	}

	// /metrics is a Prometheus scrape carrying the engine counters and the
	// §7 invariant gauge.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE neurolpm_lookups_total counter",
		"neurolpm_bucket_fetches_per_query",
		"neurolpm_serve_dram_accesses_total",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// expvar and pprof surfaces answer.
	if code, body = get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, `"neurolpm"`) {
		t.Fatalf("/debug/vars = %d (neurolpm present: %v)", code, strings.Contains(body, `"neurolpm"`))
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

	lookups := telemetry.Default.Counter("neurolpm_lookups_total", "")
	l0 := lookups.Load()

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
	if d := lookups.Load() - l0; d < workers*per+20 {
		t.Fatalf("lookup counter delta = %d, want >= %d", d, workers*per+20)
	}
}

func TestMetricsHandlerOnly(t *testing.T) {
	srv := httptest.NewServer(MetricsHandler(telemetry.Default))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "neurolpm_") {
		t.Fatalf("metrics-only handler = %d", resp.StatusCode)
	}
	// No query surface on the metrics-only mux.
	resp, err = http.Get(srv.URL + "/lookup?key=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("metrics-only /lookup = %d, want 404", resp.StatusCode)
	}
}
