package telemetry

import (
	"strings"
	"testing"
	"time"
)

// fakeClock drives a Windowed/HotSketch deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestWindowedSlidingWindow(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	w := NewWindowedLazy(NewHistogram(), time.Second, time.Minute)
	w.now = clk.now
	w.Tick(clk.t) // baseline snapshot at t=0

	// Ten observations per second for 30 seconds.
	for s := 0; s < 30; s++ {
		for i := 0; i < 10; i++ {
			w.Observe(100)
		}
		clk.advance(time.Second)
		w.Tick(clk.t)
	}

	cum, span := w.Window(0)
	if cum.Total != 300 || span != 0 {
		t.Fatalf("cumulative: total=%d span=%v, want 300, 0", cum.Total, span)
	}
	s10, span10 := w.Window(10 * time.Second)
	if s10.Total != 100 {
		t.Fatalf("10s window total=%d, want 100", s10.Total)
	}
	if span10 < 10*time.Second || span10 > 11*time.Second {
		t.Fatalf("10s window span=%v, want within [10s,11s]", span10)
	}
	// A window wider than history falls back to the oldest snapshot.
	sAll, _ := w.Window(10 * time.Minute)
	if sAll.Total != 300 {
		t.Fatalf("over-wide window total=%d, want 300", sAll.Total)
	}
}

func TestWindowedLazyRotation(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	w := NewWindowedLazy(NewHistogram(), time.Second, time.Minute)
	w.now = clk.now

	// No Tick calls at all: Window itself must rotate.
	w.Observe(1)
	if s, _ := w.Window(10 * time.Second); s.Total != 0 {
		// First read establishes the baseline; nothing is older than 10s yet,
		// so the only available base is the just-taken snapshot.
		t.Fatalf("fresh window total=%d, want 0", s.Total)
	}
	clk.advance(11 * time.Second)
	w.Observe(2)
	if s, _ := w.Window(10 * time.Second); s.Total != 1 {
		t.Fatalf("lazy-rotated window total=%d, want 1 (the post-baseline observation)", s.Total)
	}
}

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
	r := NewRecorder(16, 4)
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
	r := NewRecorder(8, 3)
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
	r.ResetSlow()
	if len(r.Slow(10)) != 0 {
		t.Fatal("ResetSlow left records")
	}
	// After reset, new commits repopulate.
	commit(7, time.Millisecond)
	if s := r.Slow(10); len(s) != 1 || s[0].KeyLo != 7 {
		t.Fatalf("slow log after reset = %+v", s)
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

func TestProbeBound(t *testing.T) {
	// Matches the engine-test invariant: 2 + bitsFor(2e+1), where
	// bitsFor(n) = ceil(log2(n)) + 1.
	cases := []struct{ err, want int }{
		{0, 3}, {1, 5}, {2, 6}, {4, 7}, {8, 8}, {100, 11},
	}
	for _, c := range cases {
		if got := ProbeBound(c.err); got != c.want {
			t.Errorf("ProbeBound(%d) = %d, want %d", c.err, got, c.want)
		}
	}
	if ProbeBound(-5) != ProbeBound(0) {
		t.Error("negative error must clamp to zero")
	}
}

func TestDriftMeterExactTail(t *testing.T) {
	d := NewDriftMeter()
	if d.Drift() != 0 {
		t.Fatal("drift without bound must be 0")
	}
	d.SetBound(4) // bound = 7
	if d.Bound() != 7 {
		t.Fatalf("bound = %d, want 7", d.Bound())
	}
	if d.Drift() != 0 {
		t.Fatal("drift without traffic must be 0")
	}
	// 90 observations of 5 probes, 10 of 7: the exact (nearest-rank) p99 is
	// 7 probes. The log₂ interpolation this meter avoids would report a
	// fractional count here; the 2^p encoding must return the integer.
	for i := 0; i < 90; i++ {
		d.Observe(5)
	}
	for i := 0; i < 10; i++ {
		d.Observe(7)
	}
	if got := d.ProbeP99(); got != 7 {
		t.Fatalf("ProbeP99 = %v, want exactly 7", got)
	}
	// p99 sits exactly at the bound: drift 1, never past it — the
	// interpolated quantile this replaced overshot small integers and
	// reported > 1 on in-bound traffic.
	if got := d.Drift(); got != 1 {
		t.Fatalf("drift = %v, want exactly 1 (p99 at the bound)", got)
	}
}

func TestHotSketchDecayAndSkew(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	s := NewHotSketch(64)
	s.now = clk.now
	s.last = clk.t
	if s.Aliased() {
		t.Fatal("64 buckets must not alias")
	}
	for i := 0; i < 900; i++ {
		s.Touch(3)
	}
	for i := 0; i < 100; i++ {
		s.Touch(uint32(10 + i%50))
	}
	if got := s.Total(); got != 1000 {
		t.Fatalf("total = %d, want 1000", got)
	}
	top := s.Top(1)
	if len(top) != 1 || top[0].Slot != 3 || top[0].Count != 900 {
		t.Fatalf("top = %+v, want slot 3 count 900", top)
	}
	if skew := s.Skew(); skew < 0.85 {
		t.Fatalf("skew = %v, want ≥ 0.85 (slot 3 holds 90%%)", skew)
	}
	// Two decay periods halve twice: 900 >> 2 = 225, the per-slot 2s decay
	// to zero.
	clk.advance(2 * decayPeriod)
	if top := s.Top(1); top[0].Count != 225 {
		t.Fatalf("decayed top count = %d, want 225 (900 >> 2)", top[0].Count)
	}
	if got := s.Total(); got != 225 {
		t.Fatalf("decayed total = %d, want 225", got)
	}
}

func TestHotSketchAliasing(t *testing.T) {
	s := NewHotSketch(maxHotSlots * 4)
	if !s.Aliased() || s.Slots() != maxHotSlots {
		t.Fatalf("aliased=%v slots=%d, want true, %d", s.Aliased(), s.Slots(), maxHotSlots)
	}
	// Buckets b and b+maxHotSlots share a slot: over-counting, never losing.
	s.Touch(5)
	s.Touch(5 + maxHotSlots)
	if top := s.Top(1); top[0].Slot != 5 || top[0].Count != 2 {
		t.Fatalf("aliased top = %+v, want slot 5 count 2", top)
	}
}

func TestStartSpanAllocs(t *testing.T) {
	// The satellite fix: StartSpan must not allocate the Attrs map eagerly.
	bare := testing.AllocsPerRun(200, func() {
		sp := StartSpan("x")
		sp.End()
	})
	withAttr := testing.AllocsPerRun(200, func() {
		sp := StartSpan("x")
		sp.Set("k", 1)
		sp.End()
	})
	if bare >= withAttr {
		t.Fatalf("bare span allocates as much as one with attrs (%v vs %v) — Attrs map is eager again", bare, withAttr)
	}
	if bare > 1 {
		t.Fatalf("bare span allocates %v objects, want ≤ 1 (the span itself)", bare)
	}
}

func TestRegistryInfoAndEntries(t *testing.T) {
	r := NewRegistry()
	r.Counter("neurolpm_test_total", "a counter")
	r.Info("neurolpm_test_info", "an info", map[string]string{"b": "2", "a": "1"})
	r.Info("neurolpm_test_info", "an info", map[string]string{"a": "1", "go": "x"}) // last writer wins

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, `neurolpm_test_info{a="1",go="x"} 1`) {
		t.Fatalf("info rendering missing/stale:\n%s", out)
	}
	if strings.Contains(out, `b="2"`) {
		t.Fatalf("stale info labels survived re-registration:\n%s", out)
	}

	es := r.Entries()
	kinds := map[string]string{}
	for _, e := range es {
		kinds[e.Name] = e.Kind
	}
	if kinds["neurolpm_test_total"] != "counter" || kinds["neurolpm_test_info"] != "info" {
		t.Fatalf("Entries kinds = %v", kinds)
	}

	snap := r.Snapshot()
	if snap[`neurolpm_test_info{a="1",go="x"}`] != 1 {
		t.Fatalf("expvar snapshot missing info: %v", snap)
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
