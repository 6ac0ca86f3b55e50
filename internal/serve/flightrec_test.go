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

// drive issues n deterministic lookups so the recorder has traffic.
func drive(t *testing.T, lookup func(keys.Value), n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lookup(keys.FromUint64(uint64(i*2654435761) & 0xffffffff))
	}
}

func TestFlightRecAndSlowEndpoints(t *testing.T) {
	withFlightSampling(t)
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
	if fresp.Count == 0 || fresp.Count != len(telemetry.Flight.Slow(0)) {
		t.Fatalf("/debug/slow lists %d records, the slow log holds %d", fresp.Count, len(telemetry.Flight.Slow(0)))
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

// TestConcurrentLookupsAndFlightReads hammers /metrics and the flight
// recorder's endpoints while lookups run — the race detector's view of the
// recorder ring, slow log and latency histogram all being read mid-write.
func TestConcurrentLookupsAndFlightReads(t *testing.T) {
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
	paths := []string{"/metrics", "/debug/flightrec?n=8", "/debug/slow"}
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
