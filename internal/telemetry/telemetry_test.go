package telemetry

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// load returns the counter's current total.
func (c *Counter) load() uint64 { return c.t.load()[0] }

func TestCounterBasics(t *testing.T) {
	c := newCounter()
	if c.load() != 0 {
		t.Fatalf("fresh counter = %d, want 0", c.load())
	}
	c.Inc()
	c.Add(41)
	if got := c.load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestCounterNoAlloc(t *testing.T) {
	c := newCounter()
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %.1f objects per op", allocs)
	}
	h := NewHistogram()
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(17) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f objects per op", allocs)
	}
}

func TestHistogramExactAggregates(t *testing.T) {
	h := NewHistogram()
	var wantSum uint64
	for v := uint64(0); v < 1000; v++ {
		h.Observe(v)
		wantSum += v
	}
	s := h.Snapshot()
	if s.Total != 1000 {
		t.Fatalf("count = %d, want 1000", s.Total)
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if mean := s.Mean(); math.Abs(mean-float64(wantSum)/1000) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1000 observations of 8: every quantile must land in bucket [8,15].
	for i := 0; i < 1000; i++ {
		h.Observe(8)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := s.Quantile(q)
		if v < 8 || v > 15 {
			t.Fatalf("Quantile(%v) = %v, want within [8,15]", q, v)
		}
	}
	if s.Max() != 15 {
		t.Fatalf("Max = %d, want 15 (bucket upper bound)", s.Max())
	}

	// A bimodal distribution: the median must stay in the low mode and the
	// p99 in the high mode.
	h2 := NewHistogram()
	for i := 0; i < 990; i++ {
		h2.Observe(2)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1 << 20)
	}
	s2 := h2.Snapshot()
	if v := s2.Quantile(0.5); v > 3 {
		t.Fatalf("median = %v, want ≤ 3", v)
	}
	if v := s2.Quantile(0.999); v < 1<<19 {
		t.Fatalf("p99.9 = %v, want ≥ %d", v, 1<<19)
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(0)
	s = h.Snapshot()
	if s.Total != 1 || s.Quantile(1) != 0 {
		t.Fatalf("zero observation: total=%d q1=%v", s.Total, s.Quantile(1))
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("get-or-create returned distinct counters for one name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Histogram("x_total", "help")
}

// TestTallyCounter: a derived counter scrapes as the sum of its tally's
// lanes, and nothing can register a second metric under its name — Counter
// and TallyCounter on it both panic, so no get-or-create reader can ever
// shadow what it derives.
func TestTallyCounter(t *testing.T) {
	r := NewRegistry()
	tl := NewTally()
	r.TallyCounter("matched_total", "lanes 1 and 3", tl, 0b1010)
	st := tl.Stripe()
	st.Add(0, 7)
	st.Add(1, 2)
	st.Add(3, 5)
	var b strings.Builder
	r.WritePrometheus(&b)
	if out := b.String(); !strings.Contains(out, "# TYPE matched_total counter\nmatched_total 7\n") {
		t.Fatalf("scrape lacks the derived counter:\n%s", out)
	}
	for name, register := range map[string]func(){
		"Counter":      func() { r.Counter("matched_total", "") },
		"TallyCounter": func() { r.TallyCounter("matched_total", "", tl, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a derived counter's name did not panic", name)
				}
			}()
			register()
		}()
	}
}

// TestTallyTicks: a lane's add returns the lane's new total on its stripe, so
// the bookers of one lane — any number of goroutines sharing the stripe —
// get its ticks 1, 2, 3, … each exactly once; and a stride tick goes to
// exactly one of the goroutines that claim it.
func TestTallyTicks(t *testing.T) {
	st := &NewTally().stripes[0]
	const writers, per = 8, 2000
	var mu sync.Mutex
	seen := make(map[[2]uint64]bool)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			ticks := make([]uint64, 0, per)
			for i := 0; i < per; i++ {
				ticks = append(ticks, st.Add(lane, 1))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, n := range ticks {
				if seen[[2]uint64{uint64(lane), n}] {
					t.Errorf("lane %d tick %d drawn twice", lane, n)
				}
				seen[[2]uint64{uint64(lane), n}] = true
			}
		}(w % 2)
	}
	wg.Wait()
	for lane := range uint64(2) {
		for n := uint64(1); n <= writers/2*per; n++ {
			if !seen[[2]uint64{lane, n}] {
				t.Fatalf("lane %d tick %d never drawn", lane, n)
			}
		}
	}
	if got := st.Tick(); got != writers*per+1 {
		t.Fatalf("tick after %d events = %d, want %d", writers*per, got, writers*per+1)
	}

	const m = 7 // a stride of 8
	for tick := uint64(8); tick <= 64; tick += 8 {
		var claims atomic.Int64
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if st.claim(m, 0, tick-1) {
					t.Errorf("tick %d claimed before stride tick %d", tick-1, tick)
				}
				if st.claim(m, 0, tick) {
					claims.Add(1)
				}
			}()
		}
		wg.Wait()
		if claims.Load() != 1 {
			t.Fatalf("stride tick %d claimed %d times, want once", tick, claims.Load())
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_total", "a demo counter").Add(7)
	h := r.Histogram("demo_probes", "a demo histogram")
	h.Observe(3)
	h.Observe(5)
	r.gauge("demo_ratio", "a demo gauge", func() float64 { return 1.0 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE demo_total counter", "demo_total 7",
		"# TYPE demo_ratio gauge", "demo_ratio 1",
		"# TYPE demo_probes histogram",
		`demo_probes_bucket{le="3"} 1`,
		`demo_probes_bucket{le="7"} 2`,
		`demo_probes_bucket{le="+Inf"} 2`,
		"demo_probes_sum 8", "demo_probes_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentHammer drives counters and histograms from 32 goroutines
// while a reader extracts quantiles — run under -race in CI.
func TestConcurrentHammer(t *testing.T) {
	const (
		writers   = 32
		perWriter = 20000
	)
	c := newCounter()
	h := NewHistogram()
	tl := NewTally()
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if q := s.Quantile(0.99); q < 0 {
				t.Error("negative quantile")
				return
			}
			_ = c.load()
			_ = tl.load()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(uint64(w*perWriter+i) % 4096)
				tl.Stripe().Add(w%numLanes, 1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := c.load(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d (lost updates)", got, writers*perWriter)
	}
	if got := h.Snapshot().Total; got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d (lost updates)", got, writers*perWriter)
	}
	for l, got := range tl.load() {
		if want := uint64(writers / numLanes * perWriter); got != want {
			t.Fatalf("tally lane %d = %d, want %d (lost updates)", l, got, want)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := newCounter()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			h.Observe(i & 1023)
			i++
		}
	})
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("pershard", "per-shard reading", "shard")
	v.Set("1", func() float64 { return 10 })
	v.Set("0", func() float64 { return 5 })
	// Get-or-create returns the same family; Set is last-writer-wins.
	r.GaugeVec("pershard", "per-shard reading", "shard").Set("1", func() float64 { return 11 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	want := "pershard{shard=\"0\"} 5\npershard{shard=\"1\"} 11\n"
	if !strings.Contains(out, want) {
		t.Fatalf("prometheus output missing sorted labeled series:\n%s", out)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Counter("pershard", "")
}

func TestGaugeVecLabelMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("family", "", "shard")
	defer func() {
		if recover() == nil {
			t.Fatal("label mismatch did not panic")
		}
	}()
	r.GaugeVec("family", "", "bank")
}
