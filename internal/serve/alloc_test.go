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

// TestHandlerAllocsPinned pins the pooled response encoding on the hot HTTP
// endpoints (PR 10 satellite): /lookup and /batch stage their JSON through
// pooled encoders and reuse batch scratch, so per-request allocations must
// stay flat. The thresholds carry ~2x headroom over measured steady state
// (recorder + header-map + trace bookkeeping); an unpooled json.Encoder or
// per-request result slices blows well past them.
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
	// 64-key batch: allocations must not scale with batch size (the scratch
	// and encoder are pooled; only the per-key hex key strings remain).
	target := "/batch?keys=0x10203040"
	for i := 1; i < 64; i++ {
		target += ",0x" + "1020" + "3040"
	}
	bt := measureHandlerAllocs(t, srv, target)
	t.Logf("/batch 64 keys: %.1f allocs/req", bt)
	if got := bt; got > 300 {
		t.Errorf("/batch (64 keys) allocates %.1f per request, pin is 300", got)
	}
}
