// Update-plane serving tests (DESIGN.md §11): /update's answer means the
// rule is in the engine, a failed rebuild leaves nothing behind, and /healthz
// is liveness alone.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

// buildFaultyShardedServer is buildShardedServer with every insert refused
// by the engines (fault.SiteAbsorb), so each one takes the rebuild path, and
// the rebuilds routed through a fault injector.
func buildFaultyShardedServer(t *testing.T) (*Server, *lpm.RuleSet, *fault.Injector) {
	t.Helper()
	rs := buildTestRuleSet(t)
	in := fault.NewInjector(7)
	in.FailProb(fault.SiteAbsorb, 1)
	cfg := quickConfig(true)
	cfg.Fault = in.Hook()
	sh, err := shard.BuildUpdatable(rs, cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewSharded(sh, telemetry.NewRegistry()), rs, in
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

// TestFailedRebuildLeavesServerHealthy: an insert the engine refuses is
// retrained in before /update answers. While the rebuild fails, /update
// refuses the insert — never with 429, there is no queue to wait on — the
// rule is nowhere, /lookup keeps the old answer and /healthz stays 200 "ok"
// with no per-shard state; once the rebuild succeeds, the insert's 200 means
// the rule is already in the engine.
func TestFailedRebuildLeavesServerHealthy(t *testing.T) {
	srv, rs, in := buildFaultyShardedServer(t)
	h := srv.Handler()
	k := freeKey32(t, rs, 1)
	lookup := "/lookup?key=" + k.String()
	var before, lr lookupResponse
	getJSON(t, h, lookup, &before)

	body := `{"op":"insert","prefix":"` + k.String() + `","len":32,"action":777}`
	in.FailProb(fault.SiteRetrain, 1)
	rec := postJSON(t, h, "/update", body)
	if rec.Code == http.StatusOK || rec.Code == http.StatusTooManyRequests {
		t.Fatalf("insert with a failing rebuild: %d %s", rec.Code, rec.Body)
	}
	if getJSON(t, h, lookup, &lr); lr != before {
		t.Fatalf("lookup after a failed insert = %+v, want the old answer %+v", lr, before)
	}
	var hz map[string]any
	if rec := getJSON(t, h, "/healthz", &hz); rec.Code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz after a failed rebuild: %d %v", rec.Code, hz["status"])
	}
	// Liveness and the engine summary, and no update-plane state beside them.
	var fields []string
	for f := range hz {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	if got := strings.Join(fields, " "); got != "dram_bytes ranges shards sram_bytes status width" {
		t.Errorf("healthz fields %q", got)
	}

	in.Clear(fault.SiteRetrain)
	if rec := postJSON(t, h, "/update", body); rec.Code != http.StatusOK {
		t.Fatalf("insert once the rebuild succeeds: %d %s", rec.Code, rec.Body)
	}
	if getJSON(t, h, lookup, &lr); !lr.Matched || lr.Action != 777 {
		t.Fatalf("lookup after the acknowledged insert = (%d,%v), want (777,true)", lr.Action, lr.Matched)
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
// plane — an insert is visible to /lookup from the engine, stays visible
// across the commit that re-densifies it, and a delete of the committed rule
// uncovers the old answer.
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
		t.Fatalf("lookup after insert = %+v, want action 777", got)
	}
	if err := sh.Commit(0); err != nil {
		t.Fatal(err)
	}
	if n := sh.Engine(0).SpilledBuckets(); n != 0 {
		t.Fatalf("spilled buckets after commit = %d", n)
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
