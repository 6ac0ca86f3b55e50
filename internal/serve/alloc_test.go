package serve

import (
	"net/http/httptest"
	"testing"

	"neurolpm/internal/telemetry"
)

// measureHandlerAllocs returns the steady-state allocations of one request
// against the mux (the recorder's own constant cost included).
func measureHandlerAllocs(t *testing.T, srv *Server, target string) float64 {
	t.Helper()
	h := srv.Handler()
	req := httptest.NewRequest("GET", target, nil)
	// Warm the pools (scratch buffers, encoder) before counting.
	for i := 0; i < 8; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	return testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("%s answered %d", target, rec.Code)
		}
	})
}

// TestHandlerAllocsPinned pins the pooled response encoding of /lookup, the
// HTTP query endpoint the benchmark times: it stages its JSON through a pooled
// encoder, so per-request allocations must stay flat. The threshold carries
// ~2x headroom over measured steady state (recorder + header-map + trace
// bookkeeping); an unpooled json.Encoder blows well past it.
func TestHandlerAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are measured without -race instrumentation")
	}
	srv, _ := buildTestServer(t, true, telemetry.NewRegistry())

	lk := measureHandlerAllocs(t, srv, "/lookup?key=0x10203040")
	t.Logf("/lookup: %.1f allocs/req", lk)
	if got := lk; got > 40 {
		t.Errorf("/lookup allocates %.1f per request, pin is 40", got)
	}
}
