// Command lpmtop is a polling terminal dashboard for a running lpmserve: a
// top(1)-style view of the flight recorder (DESIGN.md §13). It scrapes
// /metrics once per interval and reads every window off two consecutive
// scrapes, the way Prometheus's rate() does: the server exports cumulative
// counters and histograms only. QPS is the difference of two
// neurolpm_lookups_total readings, so it counts every lookup, not just the
// sampled ones; latency quantiles come from neurolpm_lookup_latency_ns (the
// flight recorder's sampled queries), over the last interval and since boot.
// Each shard's row is its live model's probe bound and its spilled buckets,
// and /debug/slow supplies the worst recorded queries.
//
// Usage:
//
//	lpmtop [-addr http://localhost:8080] [-interval 1s] [-slow 5] [-once]
//
// -once prints a single view, of one interval, without clearing the screen
// (scripts, CI).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"neurolpm/internal/telemetry"
)

// options is what the command line configures — one field per flag.
type options struct {
	addr     string
	interval time.Duration
	slow     int
	once     bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "http://localhost:8080", "lpmserve base URL")
	flag.DurationVar(&o.interval, "interval", time.Second, "poll interval")
	flag.IntVar(&o.slow, "slow", 5, "slow-query rows to show (0 = hide)")
	flag.BoolVar(&o.once, "once", false, "print one view and exit (no screen clearing)")
	flag.Parse()
	if err := top(o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lpmtop: %v\n", err)
		os.Exit(1)
	}
}

// top repaints one view per interval until a poll fails; with o.once it
// writes the first view and returns.
func top(o options, out io.Writer) error {
	c := &http.Client{Timeout: 5 * time.Second}
	prev, err := poll(c, o.addr)
	if err != nil {
		return err
	}
	for {
		time.Sleep(o.interval)
		cur, err := poll(c, o.addr)
		if err != nil {
			return err
		}
		var b strings.Builder
		render(&b, o.addr, prev, cur)
		if o.slow > 0 {
			var slow slowDoc
			if err := getJSON(c, fmt.Sprintf("%s/debug/slow?n=%d", o.addr, o.slow), &slow); err == nil {
				renderSlow(&b, &slow)
			}
		}
		if o.once {
			_, err := io.WriteString(out, b.String())
			return err
		}
		// Home + clear-to-end repaint: no flicker, no scrollback spam.
		io.WriteString(out, "\x1b[H\x1b[2J"+b.String())
		prev = cur
	}
}

// scrape is one reading of /metrics: the series lpmtop shows, each
// cumulative since the server started.
type scrape struct {
	at          time.Time
	lookups     uint64
	sampleEvery uint64
	records     uint64
	lat         telemetry.Snapshot // neurolpm_lookup_latency_ns
	shards      map[int]*shardRow
}

// shardRow is one shard's neurolpm_model_probe_bound and
// neurolpm_spilled_buckets.
type shardRow struct{ bound, spilled float64 }

// poll takes one scrape of base's /metrics.
func poll(c *http.Client, base string) (*scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: %s", base, resp.Status)
	}
	return parseMetrics(resp.Body, time.Now())
}

// parseMetrics reads the series lpmtop shows out of a Prometheus text
// exposition. The exposition lists only the non-empty buckets of a histogram,
// each with the cumulative count up to its le, so a bucket's own count is
// its cumulative count less that of the bucket listed before it. Decoding
// each scrape into per-bucket counts first is what makes the difference of
// two scrapes exact: a bucket absent from the earlier scrape held the next
// lower le's cumulative count there, not 0.
func parseMetrics(r io.Reader, at time.Time) (*scrape, error) {
	s := &scrape{at: at, shards: map[int]*shardRow{}}
	var latCum uint64
	lines := bufio.NewScanner(r)
	for lines.Scan() {
		line := lines.Text()
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		switch name {
		case "neurolpm_lookups_total":
			s.lookups = uint64(v)
		case "neurolpm_flightrec_sample_every":
			s.sampleEvery = uint64(v)
		case "neurolpm_flightrec_records":
			s.records = uint64(v)
		case "neurolpm_lookup_latency_ns_sum":
			s.lat.Sum = uint64(v)
		case "neurolpm_lookup_latency_ns_bucket":
			le, err := strconv.ParseUint(label(labels, "le"), 10, 64)
			if err != nil {
				continue // le="+Inf" repeats the count
			}
			// Bucket b holds the values up to 2^b − 1 (le="0" is bucket 0).
			s.lat.Counts[bits.Len64(le)] = uint64(v) - latCum
			s.lat.Total += uint64(v) - latCum
			latCum = uint64(v)
		case "neurolpm_model_probe_bound", "neurolpm_spilled_buckets":
			i, err := strconv.Atoi(label(labels, "shard"))
			if err != nil {
				continue
			}
			row := s.shards[i]
			if row == nil {
				row = &shardRow{}
				s.shards[i] = row
			}
			if name == "neurolpm_model_probe_bound" {
				row.bound = v
			} else {
				row.spilled = v
			}
		}
	}
	return s, lines.Err()
}

// label returns the value of key in a rendered label set (`le="255"}`).
func label(labels, key string) string {
	_, v, ok := strings.Cut(labels, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ = strings.Cut(v, `"`)
	return v
}

// slowDoc mirrors the /debug/slow response. lpmtop is an HTTP client on
// purpose — it exercises the surface operators script against — so the
// shape is re-declared here rather than imported.
type slowDoc struct {
	Records []struct {
		When     string           `json:"when"`
		Key      string           `json:"key"`
		Shard    int32            `json:"shard"`
		TotalNs  int64            `json:"total_ns"`
		StagesNs map[string]int64 `json:"stages_ns"`
		Probes   int32            `json:"probes"`
	} `json:"records"`
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// render writes the view of the interval from prev to cur.
func render(b *strings.Builder, addr string, prev, cur *scrape) {
	dt := cur.at.Sub(prev.at)
	qps := 0.0
	if cur.lookups >= prev.lookups && dt > 0 {
		qps = float64(cur.lookups-prev.lookups) / dt.Seconds()
	}
	fmt.Fprintf(b, "lpmtop — %s — %s\n", addr, cur.at.Format("15:04:05"))
	fmt.Fprintf(b, "lookups %s   qps %s   sampled 1:%d (%s records)\n\n",
		comma(cur.lookups), fmtQPS(qps), cur.sampleEvery, comma(cur.records))

	fmt.Fprintf(b, "%-6s %9s %8s %10s %10s %10s %10s %10s\n",
		"WINDOW", "SPAN", "SAMPLES", "P50", "P99", "P999", "MEAN", "MAX")
	for _, w := range []struct {
		name, span string
		s          telemetry.Snapshot
	}{
		{"last", dt.Round(10 * time.Millisecond).String(), cur.lat.Sub(prev.lat)},
		{"boot", "-", cur.lat},
	} {
		fmt.Fprintf(b, "%-6s %9s %8s %10s %10s %10s %10s %10s\n",
			w.name, w.span, comma(w.s.Total),
			fmtNs(w.s.Quantile(0.50)), fmtNs(w.s.Quantile(0.99)), fmtNs(w.s.Quantile(0.999)),
			fmtNs(w.s.Mean()), fmtNs(float64(w.s.Max())))
	}

	if len(cur.shards) > 0 {
		ids := make([]int, 0, len(cur.shards))
		for i := range cur.shards {
			ids = append(ids, i)
		}
		sort.Ints(ids)
		fmt.Fprintf(b, "\n%-6s %8s %8s\n", "SHARD", "BOUND", "SPILLED")
		for _, i := range ids {
			fmt.Fprintf(b, "%-6d %8.0f %8.0f\n", i, cur.shards[i].bound, cur.shards[i].spilled)
		}
	}
}

func renderSlow(b *strings.Builder, slow *slowDoc) {
	if len(slow.Records) == 0 {
		return
	}
	fmt.Fprintf(b, "\n%-12s %-18s %6s %10s %7s  %s\n",
		"WHEN", "KEY", "SHARD", "TOTAL", "PROBES", "STAGES")
	for _, r := range slow.Records {
		when := r.When
		if t, err := time.Parse(time.RFC3339Nano, r.When); err == nil {
			when = t.Local().Format("15:04:05.000")
		}
		fmt.Fprintf(b, "%-12s %-18s %6d %10s %7d  %s\n",
			when, clip(r.Key, 18), r.Shard, fmtNs(float64(r.TotalNs)), r.Probes, stages(r.StagesNs))
	}
}

// stages renders the per-stage nanosecond map compactly, in pipeline order.
func stages(m map[string]int64) string {
	var parts []string
	for _, st := range telemetry.StageNames {
		if ns, ok := m[st]; ok {
			parts = append(parts, fmt.Sprintf("%s=%s", st, fmtNs(float64(ns))))
		}
	}
	return strings.Join(parts, " ")
}

func fmtNs(ns float64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2fms", ns/1e6)
	default:
		return fmt.Sprintf("%.2fs", ns/1e9)
	}
}

func fmtQPS(qps float64) string {
	switch {
	case qps < 1e3:
		return fmt.Sprintf("%.0f", qps)
	case qps < 1e6:
		return fmt.Sprintf("%.1fk", qps/1e3)
	default:
		return fmt.Sprintf("%.2fM", qps/1e6)
	}
}

// comma renders n with thousands separators.
func comma(n uint64) string {
	s := fmt.Sprint(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
