package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/telemetry"
)

// withFlightSampling arms the process-wide flight recorder at 1:1 for the
// duration of a test and restores the previous stride afterwards.
func withFlightSampling(t *testing.T) {
	t.Helper()
	prev := telemetry.Flight.SampleEvery()
	telemetry.Flight.SetSampleEvery(1)
	t.Cleanup(func() { telemetry.Flight.SetSampleEvery(prev) })
}

// drive issues n deterministic lookups so the recorder, drift meter and
// hotness sketch all have traffic (the sketch samples 1:64, so n should be
// a few hundred at least).
func drive(t *testing.T, lookup func(keys.Value), n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lookup(keys.FromUint64(uint64(i*2654435761) & 0xffffffff))
	}
}

func TestSLOEndpoint(t *testing.T) {
	withFlightSampling(t)
	srv, e := buildTestServer(t, true, telemetry.NewRegistry())
	h := srv.Handler()
	drive(t, func(k keys.Value) { e.Lookup(k) }, 500)

	var resp sloResponse
	if rec := getJSON(t, h, "/slo", &resp); rec.Code != http.StatusOK {
		t.Fatalf("/slo = %d %s", rec.Code, rec.Body.String())
	}
	if resp.SampleEvery != 1 {
		t.Errorf("sample_every = %d, want 1", resp.SampleEvery)
	}
	if resp.Recorded < 500 {
		t.Errorf("recorded = %d, want ≥ 500", resp.Recorded)
	}
	if len(resp.Windows) != 3 {
		t.Fatalf("windows = %d rows, want 3 (10s, 60s, boot)", len(resp.Windows))
	}
	for i, want := range []string{"10s", "60s", "boot"} {
		if resp.Windows[i].Window != want {
			t.Errorf("windows[%d] = %q, want %q", i, resp.Windows[i].Window, want)
		}
	}
	boot := resp.Windows[2]
	if boot.Count == 0 || boot.P99Ns <= 0 || boot.MaxNs == 0 {
		t.Errorf("boot window has no samples: %+v", boot)
	}
	if boot.P50Ns > boot.P99Ns || boot.P99Ns > boot.P999Ns {
		t.Errorf("quantiles not monotonic: %+v", boot)
	}
	if len(resp.Shards) != 1 || resp.Shards[0].Shard != 0 {
		t.Fatalf("shards = %+v, want exactly shard 0", resp.Shards)
	}
	if resp.Shards[0].ProbeBound <= 0 {
		t.Errorf("probe_bound = %d, want > 0 (set at build)", resp.Shards[0].ProbeBound)
	}
	if d := resp.Shards[0].Drift; d < 0 || d > 1 {
		t.Errorf("drift = %v, want within [0,1] on a fresh model", d)
	}

	// ?window= appends a custom row.
	resp = sloResponse{}
	if rec := getJSON(t, h, "/slo?window=30s", &resp); rec.Code != http.StatusOK {
		t.Fatalf("/slo?window=30s = %d", rec.Code)
	}
	if len(resp.Windows) != 4 || resp.Windows[3].Window != "30s" {
		t.Fatalf("custom window row missing: %+v", resp.Windows)
	}

	for _, bad := range []string{"abc", "-5s", "0s", "5"} {
		if rec := getJSON(t, h, "/slo?window="+bad, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("/slo?window=%s = %d, want 400", bad, rec.Code)
		}
	}
}

func TestFlightRecAndSlowEndpoints(t *testing.T) {
	withFlightSampling(t)
	telemetry.Flight.ResetSlow()
	srv, e := buildTestServer(t, true, telemetry.NewRegistry())
	h := srv.Handler()
	drive(t, func(k keys.Value) { e.Lookup(k) }, 300)

	var fresp flightResponse
	if rec := getJSON(t, h, "/debug/flightrec", &fresp); rec.Code != http.StatusOK {
		t.Fatalf("/debug/flightrec = %d %s", rec.Code, rec.Body.String())
	}
	if fresp.Count == 0 || len(fresp.Records) != fresp.Count {
		t.Fatalf("flightrec count=%d records=%d", fresp.Count, len(fresp.Records))
	}
	if fresp.RingSize != telemetry.Flight.RingSize() {
		t.Errorf("ring_size = %d, want %d", fresp.RingSize, telemetry.Flight.RingSize())
	}
	r0 := fresp.Records[0]
	if r0.TotalNs <= 0 || r0.Key == "" || r0.When == "" {
		t.Errorf("malformed record: %+v", r0)
	}
	if len(r0.StagesNs) == 0 {
		t.Errorf("record has no stage timings: %+v", r0)
	}
	for name := range r0.StagesNs {
		ok := false
		for _, s := range telemetry.StageNames {
			if name == s {
				ok = true
			}
		}
		if !ok {
			t.Errorf("unknown stage name %q", name)
		}
	}

	fresp = flightResponse{}
	if rec := getJSON(t, h, "/debug/flightrec?n=1", &fresp); rec.Code != http.StatusOK || fresp.Count != 1 {
		t.Fatalf("/debug/flightrec?n=1: code=%d count=%d", rec.Code, fresp.Count)
	}

	fresp = flightResponse{}
	if rec := getJSON(t, h, "/debug/slow", &fresp); rec.Code != http.StatusOK {
		t.Fatalf("/debug/slow = %d", rec.Code)
	}
	if fresp.Count == 0 {
		t.Fatal("slow log empty after 300 sampled lookups")
	}
	for i := 1; i < len(fresp.Records); i++ {
		if fresp.Records[i].TotalNs > fresp.Records[i-1].TotalNs {
			t.Fatalf("slow log not worst-first at %d: %d then %d",
				i, fresp.Records[i-1].TotalNs, fresp.Records[i].TotalNs)
		}
	}

	for _, path := range []string{"/debug/flightrec", "/debug/slow"} {
		for _, bad := range []string{"0", "-3", "x"} {
			if rec := getJSON(t, h, path+"?n="+bad, nil); rec.Code != http.StatusBadRequest {
				t.Errorf("%s?n=%s = %d, want 400", path, bad, rec.Code)
			}
		}
	}
}

func TestHotnessEndpoint(t *testing.T) {
	srv, e := buildTestServer(t, true, telemetry.NewRegistry())
	h := srv.Handler()
	// The sketch samples 1:64, so a few thousand lookups guarantee touches.
	drive(t, func(k keys.Value) { e.Lookup(k) }, 2048)

	var resp hotnessResponse
	if rec := getJSON(t, h, "/debug/hotness", &resp); rec.Code != http.StatusOK {
		t.Fatalf("/debug/hotness = %d %s", rec.Code, rec.Body.String())
	}
	if resp.Shard != 0 || resp.Slots == 0 {
		t.Errorf("hotness shape: %+v", resp)
	}
	if resp.Total == 0 || len(resp.Top) == 0 {
		t.Errorf("sketch saw no traffic after 2048 lookups: total=%d top=%d", resp.Total, len(resp.Top))
	}
	if resp.Skew < 0 || resp.Skew > 1 {
		t.Errorf("skew = %v, want within [0,1]", resp.Skew)
	}
	for i := 1; i < len(resp.Top); i++ {
		if resp.Top[i].Count > resp.Top[i-1].Count {
			t.Fatalf("top list not count-descending at %d", i)
		}
	}

	// One shard has only shard 0; bad parameters are 400s.
	for _, bad := range []string{"?shard=1", "?shard=-1", "?shard=abc", "?n=0", "?n=-2", "?n=z"} {
		if rec := getJSON(t, h, "/debug/hotness"+bad, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("/debug/hotness%s = %d, want 400", bad, rec.Code)
		}
	}
}

func TestSLOShardedMode(t *testing.T) {
	withFlightSampling(t)
	srv, rs, sh := buildShardedServer(t)
	h := srv.Handler()
	drive(t, func(k keys.Value) { sh.Lookup(k) }, 500)
	_ = rs

	var resp sloResponse
	if rec := getJSON(t, h, "/slo", &resp); rec.Code != http.StatusOK {
		t.Fatalf("/slo = %d", rec.Code)
	}
	if len(resp.Shards) != sh.Shards() {
		t.Fatalf("shard rows = %d, want %d", len(resp.Shards), sh.Shards())
	}
	for i, row := range resp.Shards {
		if row.Shard != i {
			t.Errorf("row %d reports shard %d", i, row.Shard)
		}
		if row.ProbeBound <= 0 {
			t.Errorf("shard %d probe_bound = %d, want > 0", i, row.ProbeBound)
		}
	}

	// Every shard index resolves; one past the end is a 400.
	for i := 0; i < sh.Shards(); i++ {
		var hr hotnessResponse
		if rec := getJSON(t, h, "/debug/hotness?shard="+itoa(i), &hr); rec.Code != http.StatusOK {
			t.Fatalf("/debug/hotness?shard=%d = %d", i, rec.Code)
		}
		if hr.Shard != i {
			t.Errorf("asked shard %d, got %d", i, hr.Shard)
		}
	}
	if rec := getJSON(t, h, "/debug/hotness?shard="+itoa(sh.Shards()), nil); rec.Code != http.StatusBadRequest {
		t.Errorf("out-of-range shard = %d, want 400", rec.Code)
	}
}

// itoa avoids pulling strconv into the test imports for two call sites.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

// TestConcurrentLookupsAndSLOReads hammers the SLO/debug endpoints while
// lookups run — the race detector's view of the recorder ring, slow log,
// windowed histograms, drift meter and hot sketch all being read mid-write.
func TestConcurrentLookupsAndSLOReads(t *testing.T) {
	withFlightSampling(t)
	srv, e := buildTestServer(t, true, telemetry.NewRegistry())
	h := srv.Handler()

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
					e.Lookup(keys.FromUint64(i * 2654435761 & 0xffffffff))
					i++
				}
			}
		}(uint64(w) * 7919)
	}
	paths := []string{"/slo", "/slo?window=5s", "/debug/flightrec?n=8", "/debug/slow", "/debug/hotness?n=4"}
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 40; round++ {
				for _, p := range paths {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
					if rec.Code != http.StatusOK {
						t.Errorf("%s = %d under concurrency", p, rec.Code)
						return
					}
				}
			}
		}()
	}
	// Readers run a bounded number of rounds; writers spin until they finish.
	readers.Wait()
	close(stop)
	writers.Wait()
}
