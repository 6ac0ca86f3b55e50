package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
	kindGauge
	kindGaugeVec
	kindInfo
)

// entry is one named metric.
type entry struct {
	name   string
	help   string
	kind   metricKind
	ctr    *Counter
	tally  *Tally // kindCounter: the tally summed at scrape, ctr's own or a TallyCounter's
	lanes  uint8  // kindCounter: the lanes summed, one bit each
	hist   *Histogram
	fn     func() float64
	vec    *GaugeVec
	labels [][2]string // kindInfo: sorted constant label pairs
}

// Registry is a named collection of metrics. Metric constructors are
// get-or-create, so independent packages can share a metric by name without
// import cycles.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is the process-wide registry all hot-path instrumentation uses.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it if needed.
// It panics if name is registered as a different kind or derived
// (TallyCounter) — that is a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.ctr == nil {
			panic("telemetry: " + name + " already registered with a different kind or derived")
		}
		return e.ctr
	}
	c := newCounter()
	r.add(&entry{name: name, help: help, kind: kindCounter, ctr: c, tally: &c.t, lanes: 1})
	return c
}

// TallyCounter registers a counter derived at scrape time: the sum of t's
// lanes whose bits lanes sets. A scrape loads each tally once, so the
// counters derived from one tally render one cut of it and agree with each
// other. It panics if name is already registered.
func (r *Registry) TallyCounter(name, help string, t *Tally, lanes uint8) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		panic("telemetry: " + name + " already registered")
	}
	r.add(&entry{name: name, help: help, kind: kindCounter, tally: t, lanes: lanes})
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindHistogram {
			panic("telemetry: " + name + " already registered with a different kind")
		}
		return e.hist
	}
	h := NewHistogram()
	r.add(&entry{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// gauge registers a derived metric evaluated at scrape time. Re-registering
// the same name replaces the function (last writer wins), which lets a
// rebuilt engine refresh its gauges.
func (r *Registry) gauge(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindGauge {
			panic("telemetry: " + name + " already registered with a different kind")
		}
		e.fn = fn
		return
	}
	r.add(&entry{name: name, help: help, kind: kindGauge, fn: fn})
}

// GaugeVec is a derived-gauge family with one label dimension — the
// registry's answer to per-shard metrics (spilled buckets, probe bound)
// without pulling in a full label model. Each label value holds
// one scrape-time function; Set is last-writer-wins per value, matching
// gauge's rebuilt-engine refresh semantics.
type GaugeVec struct {
	name  string
	label string

	mu     sync.Mutex
	series map[string]func() float64
	order  []string
}

// Set registers (or replaces) the gauge function for one label value.
func (v *GaugeVec) Set(value string, fn func() float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.series[value]; !ok {
		v.order = append(v.order, value)
		sort.Strings(v.order)
	}
	v.series[value] = fn
}

// snapshot returns the label values (sorted) and their current readings.
func (v *GaugeVec) snapshot() ([]string, []float64) {
	v.mu.Lock()
	vals := append([]string(nil), v.order...)
	fns := make([]func() float64, len(vals))
	for i, lv := range vals {
		fns[i] = v.series[lv]
	}
	v.mu.Unlock()
	out := make([]float64, len(vals))
	for i, fn := range fns {
		out[i] = fn()
	}
	return vals, out
}

// GaugeVec returns the gauge family registered under name, creating it if
// needed. It panics if name is registered as a different kind or with a
// different label name.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindGaugeVec {
			panic("telemetry: " + name + " already registered with a different kind")
		}
		if e.vec.label != label {
			panic("telemetry: " + name + " already registered with label " + e.vec.label)
		}
		return e.vec
	}
	v := &GaugeVec{name: name, label: label, series: make(map[string]func() float64)}
	r.add(&entry{name: name, help: help, kind: kindGaugeVec, vec: v})
	return v
}

// info registers a constant-labels info metric (value always 1) in the
// Prometheus `*_info` idiom — build/configuration facts carried as labels.
// Re-registering replaces the label set (last writer wins), mirroring
// gauge's refresh semantics.
func (r *Registry) info(name, help string, labels map[string]string) {
	pairs := make([][2]string, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, [2]string{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindInfo {
			panic("telemetry: " + name + " already registered with a different kind")
		}
		e.labels = pairs
		return
	}
	r.add(&entry{name: name, help: help, kind: kindInfo, labels: pairs})
}

// add inserts an entry; callers hold r.mu.
func (r *Registry) add(e *entry) {
	r.entries[e.name] = e
	r.order = append(r.order, e.name)
	sort.Strings(r.order)
}

// snapshotEntries copies the entry list under the read lock so rendering
// runs without holding it.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*entry, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.entries[name])
	}
	return out
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (counters, gauges, and log₂ histograms with cumulative buckets).
// Each tally is loaded once a call.
func (r *Registry) WritePrometheus(w io.Writer) {
	cuts := map[*Tally][numLanes]uint64{}
	for _, e := range r.snapshotEntries() {
		switch e.kind {
		case kindCounter:
			cut, ok := cuts[e.tally]
			if !ok {
				cut = e.tally.load()
				cuts[e.tally] = cut
			}
			var n uint64
			for l, v := range cut {
				n += v * uint64(e.lanes>>l&1)
			}
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", e.name, e.help, e.name, e.name, n)
		case kindGauge:
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", e.name, e.help, e.name, e.name, e.fn())
		case kindGaugeVec:
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", e.name, e.help, e.name)
			vals, readings := e.vec.snapshot()
			for i, lv := range vals {
				fmt.Fprintf(w, "%s{%s=%q} %g\n", e.name, e.vec.label, lv, readings[i])
			}
		case kindInfo:
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s{", e.name, e.help, e.name, e.name)
			for i, p := range e.labels {
				if i > 0 {
					fmt.Fprint(w, ",")
				}
				fmt.Fprintf(w, "%s=%q", p[0], p[1])
			}
			fmt.Fprint(w, "} 1\n")
		case kindHistogram:
			s := e.hist.Snapshot()
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", e.name, e.help, e.name)
			var cum uint64
			for b := 0; b < numBuckets; b++ {
				if s.Counts[b] == 0 {
					continue
				}
				cum += s.Counts[b]
				_, hi := bucketBounds(b)
				fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", e.name, hi, cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", e.name, s.Total)
			fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", e.name, s.Sum, e.name, s.Total)
		}
	}
}
