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
// It reads the # HELP and # TYPE lines of the registry's own scrape, so it
// runs on every `go test` and fails the moment a new metric breaks the
// contract.
func TestMetricNameLint(t *testing.T) {
	srv, _ := buildTestServer(t, true, telemetry.NewRegistry())
	telemetry.SetBuildInfo(map[string]string{"lint": "1"})
	_ = srv.Handler()
	telemetry.SetBuildInfo(nil)

	// Every metric renders a # HELP line and then its # TYPE line.
	var scrape strings.Builder
	telemetry.Default.WritePrometheus(&scrape)
	nameRe := regexp.MustCompile(`^neurolpm_[a-z0-9_]+$`)
	help := map[string]string{}
	n := 0
	for _, line := range strings.Split(scrape.String(), "\n") {
		if h, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(h, " ")
			help[name] = text
			continue
		}
		typ, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		n++
		name, kind, _ := strings.Cut(typ, " ")
		if !nameRe.MatchString(name) {
			t.Errorf("%s: name does not match %s", name, nameRe)
		}
		if strings.Contains(name, "__") {
			t.Errorf("%s: double underscore", name)
		}
		for _, reserved := range []string{"_count", "_sum", "_bucket"} {
			if strings.HasSuffix(name, reserved) {
				t.Errorf("%s: reserved histogram suffix %s", name, reserved)
			}
		}
		isTotal := strings.HasSuffix(name, "_total")
		if kind == "counter" && !isTotal {
			t.Errorf("%s: counter must end in _total", name)
		}
		if kind != "counter" && isTotal {
			t.Errorf("%s: %s must not end in _total (counters only)", name, kind)
		}
		if help[name] == "" {
			t.Errorf("%s: registered with empty help text", name)
		}
	}
	if n < 10 {
		t.Fatalf("only %d metrics registered — the lint is not seeing the real registry", n)
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
	telemetry.SetBuildInfo(map[string]string{"rules": fmt.Sprint(rs.Len())})
	c := dialWire(t, srv)
	k := freeKey32(t, rs, 0)
	if _, err := c.lookup(k); err != nil {
		t.Fatal(err)
	}
	if err := c.update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: k, Len: 32, Action: 5}); err != nil {
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
