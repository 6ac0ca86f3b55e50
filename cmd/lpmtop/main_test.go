package main

import (
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/serve"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

// TestOnceAgainstTheServer drives `lpmtop -once` against the mux lpmserve
// serves while lookups run at flight stride 1, and reads the view it prints:
// a nonzero qps, latency rows for the last interval and since boot with
// samples and quantiles, the shard's live probe bound and spilled buckets,
// and the slow-query rows.
func TestOnceAgainstTheServer(t *testing.T) {
	var rules []lpm.Rule
	for i := 0; i < 256; i++ {
		rules = append(rules, lpm.Rule{Prefix: keys.FromUint64(uint64(i) << 24), Len: 8, Action: uint64(i)})
	}
	rs, err := lpm.NewRuleSet(32, rules)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.BuildUpdatable(rs, core.Config{BucketSize: 8}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewSharded(sh, telemetry.Default).Handler())
	defer srv.Close()

	prev := telemetry.Flight.SampleEvery()
	telemetry.Flight.SetSampleEvery(1)
	defer telemetry.Flight.SetSampleEvery(prev)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				sh.Lookup(keys.FromUint64(i * 2654435761 & 0xffffffff))
			}
		}
	}()
	var out strings.Builder
	err = top(options{addr: srv.URL, interval: 200 * time.Millisecond, slow: 3, once: true}, &out)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	view := out.String()
	t.Log("\n" + view)

	if strings.Contains(view, "\x1b[") {
		t.Error("-once cleared the screen")
	}
	if m := regexp.MustCompile(`qps (\S+)`).FindStringSubmatch(view); m == nil || m[1] == "0" {
		t.Errorf("no nonzero qps in the view")
	}
	for _, w := range []string{"last", "boot"} {
		// WINDOW SPAN SAMPLES P50 P99 P999 MEAN MAX: every quantile is a duration.
		row := regexp.MustCompile(`(?m)^` + w + ` +\S+ +[1-9][0-9,]* +(\S+) +(\S+) +(\S+) +\S+ +\S+$`).FindStringSubmatch(view)
		if row == nil {
			t.Errorf("no %s latency row with samples", w)
			continue
		}
		for _, q := range row[1:] {
			if q == "-" {
				t.Errorf("%s row has an empty quantile: %q", w, row[0])
			}
		}
	}
	bound := rqrmi.ProbeBound(sh.Engine(0).Compiled().MaxErr())
	if !regexp.MustCompile(fmt.Sprintf(`(?m)^SHARD +BOUND +SPILLED\n0 +%d +0$`, bound)).MatchString(view) {
		t.Errorf("no shard row with bound %d and 0 spilled buckets", bound)
	}
	if !regexp.MustCompile(`(?m)^WHEN +KEY +SHARD +TOTAL +PROBES +STAGES\n\S+ +\S+ +0 +\S+ +\d+ +inference=`).MatchString(view) {
		t.Error("no slow-query rows")
	}
}

// TestIntervalIsTheDifferenceOfTwoScrapes reads the exposition of a real
// histogram twice and requires the window lpmtop takes between the scrapes
// to be exactly the histogram of the observations made between them. The
// exposition lists only non-empty buckets, so in the last case a bucket the
// interval fills is absent from the earlier scrape: there it held the
// cumulative count of the next lower le (10), and a reader that took it for 0
// would put the interval's median in the 512–1023 ns bucket, not 2048–4095.
func TestIntervalIsTheDifferenceOfTwoScrapes(t *testing.T) {
	rep := func(v uint64, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := []struct {
		name           string
		before, during []uint64
		p50Lo, p50Hi   float64 // the log₂ bucket holding the interval's median
	}{
		{"since boot", nil, []uint64{100, 200, 300}, 128, 255},
		{"no new samples", []uint64{100, 5000}, nil, 0, 0},
		{"same buckets", rep(200, 10), rep(200, 4), 128, 255},
		{"bucket absent earlier", rep(200, 10), append(rep(700, 2), rep(3000, 8)...), 2048, 4095},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			h := reg.Histogram("neurolpm_lookup_latency_ns", "")
			only := telemetry.NewHistogram()
			scrapeNow := func() *scrape {
				var b strings.Builder
				reg.WritePrometheus(&b)
				s, err := parseMetrics(strings.NewReader(b.String()), time.Now())
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			for _, v := range c.before {
				h.Observe(v)
			}
			prev := scrapeNow()
			for _, v := range c.during {
				h.Observe(v)
				only.Observe(v)
			}
			cur := scrapeNow()
			if cur.lat != h.Snapshot() {
				t.Fatalf("boot window %+v, want the histogram's %+v", cur.lat, h.Snapshot())
			}
			win := cur.lat.Sub(prev.lat)
			if win != only.Snapshot() {
				t.Fatalf("interval %+v, want the interval's own %+v", win, only.Snapshot())
			}
			if p50 := win.Quantile(0.5); p50 < c.p50Lo || p50 > c.p50Hi {
				t.Fatalf("interval p50 %v, want within [%v, %v]", p50, c.p50Lo, c.p50Hi)
			}
		})
	}
}
