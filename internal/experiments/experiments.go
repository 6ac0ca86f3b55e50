// Package experiments reproduces every table and figure of the paper's
// evaluation (§10) plus the quantitative claims of §6–§8, mapping each to a
// runner that regenerates the corresponding rows/series. DESIGN.md carries
// the experiment index (E1–E15); EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"strings"

	"neurolpm/internal/core"
	"neurolpm/internal/rqrmi"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale sizes an experiment run. Tests and `go test -bench` use QuickScale;
// `lpmbench -full` uses PaperScale (rule counts and trace lengths matching
// §10.1).
type Scale struct {
	// Rules per family; families are workload profile names.
	Rules map[string]int
	// TraceLen is the number of queries replayed per measurement.
	TraceLen int
	// HWTraceLen is the (smaller) trace for cycle-level simulation.
	HWTraceLen int
	Model      rqrmi.Config
	Seed       int64
}

// QuickScale finishes in seconds; shapes (who wins, rough factors) already
// hold at this size.
func QuickScale() Scale {
	m := rqrmi.DefaultConfig()
	m.StageWidths = []int{1, 4, 16}
	return Scale{
		Rules: map[string]int{
			"ripe": 40000, "routeviews": 45000, "stanford": 15000,
			"snort": 20000, "ipv6": 10000,
		},
		TraceLen:   400000,
		HWTraceLen: 20000,
		Model:      m,
		Seed:       1,
	}
}

// PaperScale matches §10.1: ~870K-rule RIPE-like and ~950K RouteViews-like
// tables, ~180K Stanford-like, 10M-query traces.
func PaperScale() Scale {
	return Scale{
		Rules: map[string]int{
			"ripe": 870000, "routeviews": 948000, "stanford": 180000,
			"snort": 400000, "ipv6": 200000,
		},
		TraceLen:   10000000,
		HWTraceLen: 200000,
		Model:      rqrmi.DefaultConfig(),
		Seed:       1,
	}
}

// engineConfig returns the NeuroLPM build configuration for the scale:
// 32-byte buckets (8 × 4B ranges) per §10.1.
func (sc Scale) engineConfig() core.Config {
	return core.Config{BucketSize: 8, Model: sc.Model}
}

// RoutingFamilies are the three §10 packet-forwarding rule-set sources.
var RoutingFamilies = []string{"ripe", "routeviews", "stanford"}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func fi(v int) string     { return fmt.Sprintf("%d", v) }
func fu(v uint64) string  { return fmt.Sprintf("%d", v) }
