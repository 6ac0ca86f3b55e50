package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

func buildShardedServer(t *testing.T) (*Server, *lpm.RuleSet, *shard.ShardedUpdatable) {
	t.Helper()
	rs := buildTestRuleSet(t)
	sh, err := shard.BuildUpdatable(rs, quickConfig(true), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sh.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return NewSharded(sh, telemetry.NewRegistry()), rs, sh
}

func getJSON(t *testing.T, h http.Handler, target string, into any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code == http.StatusOK && into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s: bad JSON: %v", target, err)
		}
	}
	return rec
}

func TestBatchEndpointShardedMatchesOracle(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	h := srv.Handler()
	oracle := lpm.NewTrieMatcher(rs)

	// Three known keys via GET, comma-separated hex.
	keyTxt := []string{"0x10203040", "0xffffffff", "0"}
	var resp batchResponse
	rec := getJSON(t, h, "/batch?keys="+strings.Join(keyTxt, ","), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /batch: %d %s", rec.Code, rec.Body)
	}
	if resp.Count != len(keyTxt) || len(resp.Results) != len(keyTxt) {
		t.Fatalf("batch count %d/%d, want %d", resp.Count, len(resp.Results), len(keyTxt))
	}
	for i, txt := range keyTxt {
		k, err := ParseKey(txt, 32)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK := oracle.Lookup(k)
		got := resp.Results[i]
		if got.Matched != wantOK || (wantOK && got.Action != want) {
			t.Errorf("key %s: got (%d,%v), oracle (%d,%v)", txt, got.Action, got.Matched, want, wantOK)
		}
	}

	// POST JSON body path.
	body := `{"keys": ["0x10203040", "16.32.48.64"]}`
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /batch: %d %s", rec.Code, rec.Body)
	}
	var post batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &post); err != nil {
		t.Fatal(err)
	}
	if post.Count != 2 {
		t.Fatalf("POST count %d, want 2", post.Count)
	}
	// "16.32.48.64" is dotted-quad for 0x10203040: both spellings must agree.
	if post.Results[0] != post.Results[1] {
		t.Errorf("same key, different answers: %+v vs %+v", post.Results[0], post.Results[1])
	}
}

func TestBatchEndpointSingleEngine(t *testing.T) {
	srv, eng := buildTestServer(t, false, telemetry.NewRegistry())
	var resp batchResponse
	rec := getJSON(t, srv.Handler(), "/batch?keys=0x01020304,0xf0f0f0f0", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /batch: %d %s", rec.Code, rec.Body)
	}
	for i, res := range resp.Results {
		k, _ := ParseKey(strings.Split("0x01020304,0xf0f0f0f0", ",")[i], 32)
		want, wantOK := eng.Lookup(k)
		if res.Matched != wantOK || res.Action != want {
			t.Errorf("result %d: got (%d,%v), engine (%d,%v)", i, res.Action, res.Matched, want, wantOK)
		}
	}
}

func TestBatchEndpointRejectsBadInput(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	h := srv.Handler()
	if rec := getJSON(t, h, "/batch", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing keys: %d, want 400", rec.Code)
	}
	if rec := getJSON(t, h, "/batch?keys=zz!!", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage key: %d, want 400", rec.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("truncated JSON: %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: %d, want 405", rec.Code)
	}
}

func TestShardedLookupAndHealthz(t *testing.T) {
	srv, rs, sh := buildShardedServer(t)
	h := srv.Handler()
	oracle := lpm.NewTrieMatcher(rs)

	var lr lookupResponse
	rec := getJSON(t, h, "/lookup?key=0x01020304", &lr)
	if rec.Code != http.StatusOK {
		t.Fatalf("/lookup: %d %s", rec.Code, rec.Body)
	}
	k, _ := ParseKey("0x01020304", 32)
	want, wantOK := oracle.Lookup(k)
	if lr.Matched != wantOK || (wantOK && lr.Action != want) {
		t.Errorf("/lookup: got (%d,%v), oracle (%d,%v)", lr.Action, lr.Matched, want, wantOK)
	}

	var hz map[string]any
	rec = getJSON(t, h, "/healthz", &hz)
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", rec.Code)
	}
	if got := hz["shards"]; got != float64(sh.Shards()) {
		t.Errorf("healthz shards = %v, want %d", got, sh.Shards())
	}

	// /trace routes to the key's sub-engine and must include a span.
	var trc traceResponse
	rec = getJSON(t, h, "/trace?key=0x01020304", &trc)
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace: %d %s", rec.Code, rec.Body)
	}
	if trc.Span == nil {
		t.Error("/trace returned no span in sharded mode")
	}
}
