package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestSnapshotSub(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	h.Observe(100)
	before := h.Snapshot()
	h.Observe(7)
	h.Observe(2000)
	d := h.Snapshot().Sub(before)
	if d.Total != 2 {
		t.Fatalf("delta total=%d, want 2", d.Total)
	}
	if d.Sum != 2007 {
		t.Fatalf("delta sum=%d, want 2007", d.Sum)
	}
	// Sub against a foreign (larger) snapshot clamps, never underflows.
	if z := before.Sub(h.Snapshot()); z.Total != 0 || z.Sum != 0 {
		t.Fatalf("clamped sub = %+v, want zero", z)
	}
}

func TestRecorderSampling(t *testing.T) {
	r := newRecorder(16, 4)
	if r.SampleEvery() != DefaultSampleEvery {
		t.Fatalf("default stride %d, want %d", r.SampleEvery(), DefaultSampleEvery)
	}
	r.SetSampleEvery(100) // rounds up to 128
	if r.SampleEvery() != 128 {
		t.Fatalf("stride %d, want 128 (rounded)", r.SampleEvery())
	}
	// Each stride tick is drawn once, by the first event at or past it; a
	// stale peek behind the last draw never draws.
	s := &NewTally().stripes[0]
	for _, c := range []struct {
		t    uint64
		want bool
	}{{64, false}, {127, false}, {128, true}, {128, false}, {200, false}, {300, true}, {290, false}, {384, true}} {
		if got := r.Draws(s, c.t); got != c.want {
			t.Fatalf("stride 128: Draws(tick %d) = %v, want %v", c.t, got, c.want)
		}
	}
	if r.Due(s, 400) || !r.Due(s, 512) {
		t.Fatal("Due disagrees with the stride ticks past the last draw")
	}
	// A stride set anew does not reach back past the tick in hand: 512 went
	// unclaimed under the old setting.
	r.SetSampleEvery(128)
	if r.Draws(s, 600) || !r.Draws(s, 640) {
		t.Fatal("a new stride's first draw reached back past its tick, or missed its stride tick")
	}
	r.SetSampleEvery(0)
	if r.SampleEvery() != 0 {
		t.Fatal("disabled stride should read 0")
	}
	s = &NewTally().stripes[0]
	for n := uint64(1); n < 1<<12; n++ {
		if r.Draws(s, n) {
			t.Fatalf("disabled recorder sampled tick %d", n)
		}
	}
	r.SetSampleEvery(1)
	if !r.Draws(s, 7) || r.Draws(s, 7) || !r.Draws(s, 8) {
		t.Fatal("stride 1 must sample every tick once")
	}
}

func TestRecorderRingAndSlow(t *testing.T) {
	r := newRecorder(8, 3)
	commit := func(keyLo uint64, total time.Duration) {
		var fr FlightRecord
		fr.Begin(0, keyLo)
		// Rewind t0 so TotalNs comes out near the requested duration
		// without sleeping.
		fr.t0 = fr.t0.Add(-total)
		r.Commit(&fr)
	}
	for i := 1; i <= 12; i++ {
		commit(uint64(i), time.Duration(i)*time.Millisecond)
	}
	if r.Recorded() != 12 {
		t.Fatalf("recorded %d, want 12", r.Recorded())
	}
	recent := r.Recent(100)
	if len(recent) != 8 {
		t.Fatalf("ring returned %d records, want 8 (capacity)", len(recent))
	}
	// Newest first: keys 12, 11, ..., 5.
	for i, rec := range recent {
		if want := uint64(12 - i); rec.KeyLo != want {
			t.Fatalf("recent[%d].KeyLo = %d, want %d", i, rec.KeyLo, want)
		}
	}
	slow := r.Slow(100)
	if len(slow) != 3 {
		t.Fatalf("slow log has %d records, want 3", len(slow))
	}
	for i, rec := range slow {
		if want := uint64(12 - i); rec.KeyLo != want {
			t.Fatalf("slow[%d].KeyLo = %d, want %d (worst first)", i, rec.KeyLo, want)
		}
		if rec.TotalNs <= 0 {
			t.Fatalf("slow[%d].TotalNs = %d, want > 0", i, rec.TotalNs)
		}
	}
	// A fast record must not displace the slow log.
	commit(99, time.Microsecond)
	if s := r.Slow(1); s[0].KeyLo != 12 {
		t.Fatalf("fast record displaced the slow log head (key %d)", s[0].KeyLo)
	}
}

func TestFlightRecordStages(t *testing.T) {
	var fr FlightRecord
	fr.Begin(1, 2)
	fr.Stamp(StageInference)
	fr.Stamp(StageSearch)
	var sum int64
	for _, ns := range fr.StageNs {
		if ns < 0 {
			t.Fatalf("negative stage time: %v", fr.StageNs)
		}
		sum += ns
	}
	if total := time.Since(fr.t0).Nanoseconds(); sum > total {
		t.Fatalf("stage sum %d exceeds elapsed %d", sum, total)
	}
	// Nil receiver is the unsampled path; must not panic.
	var nilFr *FlightRecord
	nilFr.Stamp(StageFetch)
}

func TestRegistryInfo(t *testing.T) {
	r := NewRegistry()
	r.Counter("neurolpm_test_total", "a counter")
	r.info("neurolpm_test_info", "an info", map[string]string{"b": "2", "a": "1"})
	r.info("neurolpm_test_info", "an info", map[string]string{"a": "1", "go": "x"}) // last writer wins

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, `neurolpm_test_info{a="1",go="x"} 1`) {
		t.Fatalf("info rendering missing/stale:\n%s", out)
	}
	if strings.Contains(out, `b="2"`) {
		t.Fatalf("stale info labels survived re-registration:\n%s", out)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Counter("neurolpm_test_info", "")
}

func TestBuildInfoAndProcessStart(t *testing.T) {
	SetBuildInfo(map[string]string{"mode": "test"})
	var sb strings.Builder
	Default.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, "neurolpm_build_info{") ||
		!strings.Contains(out, `mode="test"`) ||
		!strings.Contains(out, "go_version=") {
		t.Fatalf("build info missing:\n%s", out)
	}
	if !strings.Contains(out, "neurolpm_process_start_time_seconds") {
		t.Fatalf("process start time missing:\n%s", out)
	}
}
