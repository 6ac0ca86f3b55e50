package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neurolpm/internal/lpm"
	"neurolpm/internal/telemetry"
)

// Result-cache plane tests (DESIGN.md §12): the serve surface with
// UseResultCache must answer identically to the uncached paths, report the
// per-query outcome in the "cache" field, and export the lcache counters.

func TestResultCacheSingleEngine(t *testing.T) {
	srv, e := buildTestServer(t, true, telemetry.Default)
	srv.UseResultCache(256 << 10)
	h := srv.Handler()

	k, _ := ParseKey("10.1.2.3", 32)
	wantAction, wantOK := e.Lookup(k)

	// First probe of a fresh cache cannot hit; repeated probes must hit at
	// least once (the pool hands the warm cache back on the same goroutine).
	var first lookupResponse
	if rec := getJSON(t, h, "/lookup?key=10.1.2.3", &first); rec.Code != http.StatusOK {
		t.Fatalf("/lookup: %d %s", rec.Code, rec.Body)
	}
	if first.Cache != "miss" {
		t.Fatalf("first cached /lookup outcome = %q, want miss", first.Cache)
	}
	hits := 0
	for i := 0; i < 8; i++ {
		var lr lookupResponse
		getJSON(t, h, "/lookup?key=10.1.2.3", &lr)
		if lr.Matched != wantOK || (wantOK && lr.Action != wantAction) {
			t.Fatalf("cached /lookup (%d,%v) disagrees with engine (%d,%v)", lr.Action, lr.Matched, wantAction, wantOK)
		}
		if lr.Cache == "hit" {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("8 repeat lookups of the same key never hit the result cache")
	}

	// /batch through the cached path: duplicates and fresh keys all agree
	// with direct engine queries.
	keyTxt := []string{"10.1.2.3", "10.1.2.3", "0x7f000001", "0xffffffff"}
	var br batchResponse
	if rec := getJSON(t, h, "/batch?keys="+strings.Join(keyTxt, ","), &br); rec.Code != http.StatusOK {
		t.Fatalf("/batch: %d %s", rec.Code, rec.Body)
	}
	for i, txt := range keyTxt {
		bk, err := ParseKey(txt, 32)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := e.Lookup(bk)
		got := br.Results[i]
		if got.Matched != ok || (ok && got.Action != a) {
			t.Errorf("batch key %s: got (%d,%v), engine (%d,%v)", txt, got.Action, got.Matched, a, ok)
		}
	}

	// /trace still spans the pipeline and carries the cache outcome.
	var tr traceResponse
	if rec := getJSON(t, h, "/trace?key=10.1.2.3", &tr); rec.Code != http.StatusOK {
		t.Fatalf("/trace: %d %s", rec.Code, rec.Body)
	}
	if tr.Lookup.Cache == "" {
		t.Error("/trace with result cache enabled omitted the cache outcome")
	}
	if tr.Span == nil || tr.Span.TotalNs <= 0 {
		t.Error("/trace lost its span when the result cache is on")
	}

	// /metrics exports the lcache counter family.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"neurolpm_lcache_hits_total",
		"neurolpm_lcache_misses_total",
		"neurolpm_lcache_fills_total",
		"neurolpm_lcache_hit_rate",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestResultCacheOffOmitsField(t *testing.T) {
	srv, _ := buildTestServer(t, true, telemetry.NewRegistry())
	h := srv.Handler()
	rec := getJSON(t, h, "/lookup?key=10.1.2.3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/lookup: %d %s", rec.Code, rec.Body)
	}
	if strings.Contains(rec.Body.String(), `"cache"`) {
		t.Fatalf("uncached /lookup response leaked a cache field: %s", rec.Body)
	}
}

func TestResultCacheShardedUpdateInvalidates(t *testing.T) {
	srv, rs, sh := buildShardedServer(t)
	srv.UseResultCache(128 << 10)
	if !sh.CacheEnabled() {
		t.Fatal("UseResultCache on a sharded server did not enable the shard cache plane")
	}
	h := srv.Handler()
	oracle := lpm.NewTrieMatcher(rs)

	k, _ := ParseKey("10.1.2.3", 32)
	wantAction, wantOK := oracle.Lookup(k)
	hits := 0
	for i := 0; i < 8; i++ {
		var lr lookupResponse
		if rec := getJSON(t, h, "/lookup?key=10.1.2.3", &lr); rec.Code != http.StatusOK {
			t.Fatalf("/lookup: %d %s", rec.Code, rec.Body)
		}
		if lr.Cache == "" {
			t.Fatalf("sharded cached /lookup omitted the outcome: %+v", lr)
		}
		if lr.Matched != wantOK || (wantOK && lr.Action != wantAction) {
			t.Fatalf("cached /lookup (%d,%v) disagrees with oracle (%d,%v)", lr.Action, lr.Matched, wantAction, wantOK)
		}
		if lr.Cache == "hit" {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("repeat sharded lookups never hit the result cache")
	}

	// A delta insert of a more-specific rule bumps the shard's epoch: the
	// cached answer must die and the very next lookup must see the new rule.
	body := `{"op": "insert", "prefix": "10.1.2.3", "len": 32, "action": 424242}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/update: %d %s", rec.Code, rec.Body)
	}
	for i := 0; i < 4; i++ {
		var lr lookupResponse
		getJSON(t, h, "/lookup?key=10.1.2.3", &lr)
		if !lr.Matched || lr.Action != 424242 {
			t.Fatalf("lookup %d after update: got (%d,%v), want (424242,true) — stale cache entry served", i, lr.Action, lr.Matched)
		}
	}

	// Batches agree with the oracle under the cache plane too.
	keyTxt := make([]string, 0, 32)
	for i := 0; i < 16; i++ {
		keyTxt = append(keyTxt, fmt.Sprintf("0x%08x", 0x0a010200+i), fmt.Sprintf("0x%08x", 0x0a010200+i))
	}
	var br batchResponse
	if rec := getJSON(t, h, "/batch?keys="+strings.Join(keyTxt, ","), &br); rec.Code != http.StatusOK {
		t.Fatalf("/batch: %d %s", rec.Code, rec.Body)
	}
	for i, txt := range keyTxt {
		bk, err := ParseKey(txt, 32)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := sh.Lookup(bk)
		got := br.Results[i]
		if got.Matched != ok || (ok && got.Action != a) {
			t.Errorf("batch key %s: got (%d,%v), engine (%d,%v)", txt, got.Action, got.Matched, a, ok)
		}
	}
}
