// Degraded-mode serving tests (DESIGN.md §11): /healthz must track the
// sharded update plane's health, /update must apply backpressure, and
// readers must stay correct throughout a failure storm.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

// buildFaultyShardedServer is buildShardedServer with commits routed
// through a fault injector and a configurable per-shard delta capacity. These
// tests are about the delta buffer and what a failing commit does to it, so
// the engines refuse to absorb (fault.SiteAbsorb) and every insert is
// buffered.
func buildFaultyShardedServer(t *testing.T, capacity int) (*Server, *lpm.RuleSet, *shard.ShardedUpdatable, *fault.Injector) {
	t.Helper()
	rs := buildTestRuleSet(t)
	in := fault.NewInjector(7)
	in.FailProb(fault.SiteAbsorb, 1)
	cfg := quickConfig(true)
	cfg.Fault = in.Hook()
	sh, err := shard.BuildUpdatable(rs, cfg, 4, capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sh.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return NewSharded(sh, telemetry.NewRegistry()), rs, sh, in
}

// freeKey32 returns a 32-bit key in the given shard (top 2 bits of 4
// shards) with no /32 rule installed, so it can be inserted as a fresh rule.
func freeKey32(t *testing.T, rs *lpm.RuleSet, shardIdx int) keys.Value {
	t.Helper()
	base := uint64(shardIdx) << 30
	for p := uint64(0); p < 1<<30; p++ {
		k := keys.FromUint64(base | (p*2654435761)%(1<<30))
		if rs.Find(k, 32) == lpm.NoMatch {
			return k
		}
	}
	t.Fatalf("no free /32 in shard %d", shardIdx)
	return keys.Value{}
}

func postJSON(t *testing.T, h http.Handler, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rec
}

// TestHealthzTracksShardHealth walks /healthz through the acceptance
// sequence: ok → degraded (200, readers still correct) → stale (503) →
// ok again after a successful commit, with the queued update applied
// exactly once.
func TestHealthzTracksShardHealth(t *testing.T) {
	srv, rs, sh, in := buildFaultyShardedServer(t, 0)
	h := srv.Handler()
	sh.SetStaleBudget(50 * time.Millisecond)
	k := freeKey32(t, rs, 1)

	var hz struct {
		Status        string        `json:"status"`
		ShardHealth   []shardHealth `json:"shard_health"`
		StaleBudgetMs int64         `json:"stale_budget_ms"`
		Pending       int           `json:"pending_inserts"`
	}
	if rec := getJSON(t, h, "/healthz", &hz); rec.Code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("initial healthz: %d %q", rec.Code, hz.Status)
	}
	if hz.StaleBudgetMs != 50 {
		t.Fatalf("stale_budget_ms = %d, want 50", hz.StaleBudgetMs)
	}

	body := `{"op":"insert","prefix":"` + k.String() + `","len":32,"action":777}`
	if rec := postJSON(t, h, "/update", body); rec.Code != http.StatusOK {
		t.Fatalf("insert via /update: %d %s", rec.Code, rec.Body)
	}
	in.FailProb(fault.SiteRetrain, 1)
	if err := sh.CommitAll(); err == nil {
		t.Fatal("injected commit succeeded")
	}

	// Degraded: still 200, per-shard detail carries the failure.
	if rec := getJSON(t, h, "/healthz", &hz); rec.Code != http.StatusOK || hz.Status != "degraded" {
		t.Fatalf("degraded healthz: %d %q", rec.Code, hz.Status)
	}
	found := false
	for _, st := range hz.ShardHealth {
		if st.Health == "degraded" {
			found = true
			if st.ConsecutiveFailures == 0 || st.LastError == "" || st.Pending == 0 {
				t.Fatalf("degraded shard entry incomplete: %+v", st)
			}
		}
	}
	if !found {
		t.Fatalf("no degraded shard in %+v", hz.ShardHealth)
	}
	// Readers keep answering — the pending rule is served from the delta.
	var lr lookupResponse
	if rec := getJSON(t, h, "/lookup?key="+k.String(), &lr); rec.Code != http.StatusOK {
		t.Fatalf("lookup while degraded: %d", rec.Code)
	}
	if !lr.Matched || lr.Action != 777 {
		t.Fatalf("lookup while degraded = (%d,%v), want (777,true)", lr.Action, lr.Matched)
	}

	// Past the budget the endpoint flips to 503 stale.
	time.Sleep(60 * time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale healthz code = %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"stale"`) {
		t.Fatalf("stale healthz body missing state: %s", rec.Body)
	}

	// Recovery: next successful commit restores ok and applies the rule once.
	in.Clear(fault.SiteRetrain)
	if err := sh.CommitAll(); err != nil {
		t.Fatal(err)
	}
	if rec := getJSON(t, h, "/healthz", &hz); rec.Code != http.StatusOK || hz.Status != "ok" || hz.Pending != 0 {
		t.Fatalf("recovered healthz: %d %q pending=%d", rec.Code, hz.Status, hz.Pending)
	}
	if rec := getJSON(t, h, "/lookup?key="+k.String(), &lr); rec.Code != http.StatusOK || !lr.Matched || lr.Action != 777 {
		t.Fatalf("lookup after recovery = (%d,%v) code %d", lr.Action, lr.Matched, rec.Code)
	}
}

// TestUpdateEndpointLifecycle drives insert → modify → delete through
// POST /update and checks each step through /lookup.
func TestUpdateEndpointLifecycle(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	h := srv.Handler()
	k := freeKey32(t, rs, 2)
	key := k.String()

	if rec := postJSON(t, h, "/update", `{"op":"insert","prefix":"`+key+`","len":32,"action":101}`); rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body)
	}
	var lr lookupResponse
	if getJSON(t, h, "/lookup?key="+key, &lr); !lr.Matched || lr.Action != 101 {
		t.Fatalf("after insert: (%d,%v)", lr.Action, lr.Matched)
	}
	if rec := postJSON(t, h, "/update", `{"op":"modify","prefix":"`+key+`","len":32,"action":202}`); rec.Code != http.StatusOK {
		t.Fatalf("modify: %d %s", rec.Code, rec.Body)
	}
	if getJSON(t, h, "/lookup?key="+key, &lr); !lr.Matched || lr.Action != 202 {
		t.Fatalf("after modify: (%d,%v)", lr.Action, lr.Matched)
	}
	if rec := postJSON(t, h, "/update", `{"op":"delete","prefix":"`+key+`","len":32}`); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	// After deleting the /32 the answer must match the trie oracle again.
	oracle := lpm.NewTrieMatcher(rs)
	want, wantOK := oracle.Lookup(k)
	if getJSON(t, h, "/lookup?key="+key, &lr); lr.Matched != wantOK || (wantOK && lr.Action != want) {
		t.Fatalf("after delete: (%d,%v), oracle (%d,%v)", lr.Action, lr.Matched, want, wantOK)
	}
}

// TestUpdateEndpointRejectsBadInput is the table-driven bad-input sweep for
// POST /update: every malformed request must produce the right status and
// a JSON error payload.
func TestUpdateEndpointRejectsBadInput(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	h := srv.Handler()
	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"get method", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"empty body", http.MethodPost, "", http.StatusBadRequest},
		{"truncated json", http.MethodPost, `{"op":"insert"`, http.StatusBadRequest},
		{"trailing data", http.MethodPost, `{"op":"delete","prefix":"0x1","len":32} true`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"op":"insert","prefix":"0x1","len":32,"bogus":1}`, http.StatusBadRequest},
		{"unknown op", http.MethodPost, `{"op":"upsert","prefix":"0x1","len":32}`, http.StatusBadRequest},
		{"bad prefix", http.MethodPost, `{"op":"insert","prefix":"zz!!","len":32,"action":1}`, http.StatusBadRequest},
		{"bad length", http.MethodPost, `{"op":"insert","prefix":"0x1","len":99,"action":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, "/update", strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Fatalf("code = %d, want %d (%s)", rec.Code, tc.want, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), `"error"`) {
				t.Fatalf("missing JSON error payload: %s", rec.Body)
			}
		})
	}
}

// TestUpdateThenLookupOneShard: the degenerate topology has the whole update
// plane — an insert is visible to /lookup from the delta buffer, stays visible
// across the commit that retrains it into the engine, and a delete of the
// committed rule uncovers the old answer.
func TestUpdateThenLookupOneShard(t *testing.T) {
	sh := buildOneShard(t, true)
	h := NewSharded(sh, telemetry.NewRegistry()).Handler()
	k := freeKey32(t, buildTestRuleSet(t), 0)
	target := "/lookup?key=" + k.String()
	var before, got lookupResponse
	getJSON(t, h, target, &before)

	body := fmt.Sprintf(`{"op":"insert","prefix":"%s","len":32,"action":777}`, k)
	if rec := postJSON(t, h, "/update", body); rec.Code != http.StatusOK {
		t.Fatalf("/update insert on one shard: %d %s", rec.Code, rec.Body)
	}
	if getJSON(t, h, target, &got); !got.Matched || got.Action != 777 {
		t.Fatalf("lookup after insert = %+v, want action 777 from the delta buffer", got)
	}
	if err := sh.Commit(0); err != nil {
		t.Fatal(err)
	}
	if sh.PendingInserts() != 0 {
		t.Fatalf("pending after commit = %d", sh.PendingInserts())
	}
	if getJSON(t, h, target, &got); !got.Matched || got.Action != 777 {
		t.Fatalf("lookup after commit = %+v, want action 777 from the engine", got)
	}
	body = fmt.Sprintf(`{"op":"delete","prefix":"%s","len":32}`, k)
	if rec := postJSON(t, h, "/update", body); rec.Code != http.StatusOK {
		t.Fatalf("/update delete on one shard: %d %s", rec.Code, rec.Body)
	}
	if getJSON(t, h, target, &got); got.Matched != before.Matched || got.Action != before.Action {
		t.Fatalf("lookup after delete = %+v, want the pre-insert answer %+v", got, before)
	}
}

// TestUpdateBackpressure429: a full delta buffer must answer 429 with a
// Retry-After hint, not 500 — clients are expected to back off and retry
// after the committer drains the shard.
func TestUpdateBackpressure429(t *testing.T) {
	srv, rs, sh, _ := buildFaultyShardedServer(t, 1) // capacity 1 per shard
	h := srv.Handler()
	k1, k2 := freeKey32(t, rs, 0), freeKey32(t, rs, 0).Xor(keys.FromUint64(1))
	if rs.Find(k2, 32) != lpm.NoMatch {
		t.Skip("second probe key collides with the rule set")
	}
	if rec := postJSON(t, h, "/update", `{"op":"insert","prefix":"`+k1.String()+`","len":32,"action":1}`); rec.Code != http.StatusOK {
		t.Fatalf("first insert: %d %s", rec.Code, rec.Body)
	}
	rec := postJSON(t, h, "/update", `{"op":"insert","prefix":"`+k2.String()+`","len":32,"action":2}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow insert: %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After hint")
	}
	// Draining the shard unblocks writes.
	if err := sh.CommitAll(); err != nil {
		t.Fatal(err)
	}
	if rec := postJSON(t, h, "/update", `{"op":"insert","prefix":"`+k2.String()+`","len":32,"action":2}`); rec.Code != http.StatusOK {
		t.Fatalf("insert after drain: %d %s", rec.Code, rec.Body)
	}
}

// TestBatchBadInputTable is the table-driven /batch sweep (satellite 3):
// malformed JSON, empty key lists and oversized batches all get 400 plus a
// JSON error payload.
func TestBatchBadInputTable(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	h := srv.Handler()
	oversized := `{"keys":[` + strings.Repeat(`"1",`, MaxBatchKeys) + `"1"]}`
	cases := []struct {
		name   string
		method string
		target string
		body   string
		want   int
	}{
		{"get no keys", http.MethodGet, "/batch", "", http.StatusBadRequest},
		{"get bad key", http.MethodGet, "/batch?keys=0x1,zz!!", "", http.StatusBadRequest},
		{"post malformed", http.MethodPost, "/batch", `{"keys": [`, http.StatusBadRequest},
		{"post wrong type", http.MethodPost, "/batch", `{"keys": "0x1"}`, http.StatusBadRequest},
		{"post empty list", http.MethodPost, "/batch", `{"keys": []}`, http.StatusBadRequest},
		{"post null keys", http.MethodPost, "/batch", `{}`, http.StatusBadRequest},
		{"post trailing data", http.MethodPost, "/batch", `{"keys":["0x1"]} {"keys":["0x2"]}`, http.StatusBadRequest},
		{"post oversized", http.MethodPost, "/batch", oversized, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, body))
			if rec.Code != tc.want {
				t.Fatalf("code = %d, want %d (%s)", rec.Code, tc.want, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), `"error"`) {
				t.Fatalf("missing JSON error payload: %s", rec.Body)
			}
		})
	}
}
