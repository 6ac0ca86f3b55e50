package serve

import (
	"regexp"
	"strings"
	"testing"

	"neurolpm/internal/telemetry"
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
