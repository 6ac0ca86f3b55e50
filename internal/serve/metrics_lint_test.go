package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"neurolpm/internal/telemetry"
	"neurolpm/internal/wire"
)

// TestMetricNameLint enforces the registry-wide naming contract over every
// metric the serving binary registers (building an engine and a server first
// forces the lazy registrations):
//
//   - names match ^neurolpm_[a-z0-9_]+$ — one namespace, lowercase,
//     Prometheus-safe;
//   - counters end in _total (the Prometheus counter convention);
//   - only counters end in _total — a gauge named *_total misleads every
//     rate() query written against it;
//   - no name ends in _count, _sum or _bucket: the histogram exposition
//     appends exactly those suffixes, so a scalar metric using one would
//     collide with (or masquerade as) a histogram series.
//
// This is the cheap half of satellite (f): it runs on every `go test` and
// fails the build the moment a new metric breaks the contract.
func TestMetricNameLint(t *testing.T) {
	srv, _ := buildTestServer(t, true, telemetry.NewRegistry())
	srv.SetInfo("lint", "1")
	_ = srv.Handler()
	telemetry.SetBuildInfo(nil)

	nameRe := regexp.MustCompile(`^neurolpm_[a-z0-9_]+$`)
	entries := telemetry.Default.Entries()
	if len(entries) < 10 {
		t.Fatalf("only %d metrics registered — the lint is not seeing the real registry", len(entries))
	}
	for _, m := range entries {
		if !nameRe.MatchString(m.Name) {
			t.Errorf("%s: name does not match %s", m.Name, nameRe)
		}
		if strings.Contains(m.Name, "__") {
			t.Errorf("%s: double underscore", m.Name)
		}
		for _, reserved := range []string{"_count", "_sum", "_bucket"} {
			if strings.HasSuffix(m.Name, reserved) {
				t.Errorf("%s: reserved histogram suffix %s", m.Name, reserved)
			}
		}
		isTotal := strings.HasSuffix(m.Name, "_total")
		if m.Kind == "counter" && !isTotal {
			t.Errorf("%s: counter must end in _total", m.Name)
		}
		if m.Kind != "counter" && isTotal {
			t.Errorf("%s: %s must not end in _total (counters only)", m.Name, m.Kind)
		}
		if m.Help == "" {
			t.Errorf("%s: registered with empty help text", m.Name)
		}
	}
}

// documentedSeries is DESIGN.md §8's statement of the series count.
var documentedSeries = regexp.MustCompile("That is ([0-9]+) distinct `neurolpm_\\*` series names")

// TestSeriesCountIsTheDocumented holds DESIGN.md §8's series count to a live
// scrape: a server over one shard on the process registry, as lpmserve runs,
// answers one wire lookup and one update, and its /metrics must list exactly
// as many neurolpm_ series as the document says.
func TestSeriesCountIsTheDocumented(t *testing.T) {
	rs := buildTestRuleSet(t)
	srv := NewSharded(buildOneShard(t, true), telemetry.Default)
	srv.SetInfo("rules", fmt.Sprint(rs.Len()))
	c := dialWire(t, srv)
	k := freeKey32(t, rs, 0)
	if _, err := c.Lookup(k); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: k, Len: 32, Action: 5}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got := strings.Count("\n"+rec.Body.String(), "\n# TYPE neurolpm_")

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := documentedSeries.FindSubmatch(doc)
	if m == nil {
		t.Fatalf("DESIGN.md states no series count matching %s", documentedSeries)
	}
	if want, _ := strconv.Atoi(string(m[1])); got != want {
		t.Errorf("/metrics lists %d neurolpm_ series, DESIGN.md §8 says %d", got, want)
	}
}
