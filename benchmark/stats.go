package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an ascending
// slice: the smallest value with at least p of the samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle of vals (mean of the two middle values for an
// even count); it sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vals, n=4) does (the default "exclusive" method), the
// rule the repeatability criterion is stated in. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}

// windowStats holds the per-window values of one side of a measured run: the
// workload's own traffic, or the reference's (see reference.go). Every
// window is shared between the two, slice by slice, and an end-to-end timing
// or rate is the median over windows of the workload's value over the
// reference's value in the same window, times the reference's nominal value:
// neither one disturbed window nor a slow quarter of an hour on the host
// moves it.
type windowStats struct {
	QPS    []float64 // verified operations completed per second of this side's slices
	P50    []float64 // µs
	P99    []float64 // µs
	Within []float64 // share answered correctly within the limit

	all []int64 // every latency of the measured span, ns
}

// merge appends the windows and latencies of o, a later round of one run.
func (ws *windowStats) merge(o windowStats) {
	ws.QPS = append(ws.QPS, o.QPS...)
	ws.P50 = append(ws.P50, o.P50...)
	ws.P99 = append(ws.P99, o.P99...)
	ws.Within = append(ws.Within, o.Within...)
	ws.all = append(ws.all, o.all...)
}

// add appends one window made of lat, the ascending latencies (ns) of what
// was answered, out of sent operations of which completed were right and
// within met the limit, over secs seconds of this side's slices.
func (ws *windowStats) add(lat []int64, sent, completed, within int, secs float64) {
	ws.QPS = append(ws.QPS, float64(completed)/secs)
	ws.P50 = append(ws.P50, float64(percentile(lat, 0.50))/1e3)
	ws.P99 = append(ws.P99, float64(percentile(lat, 0.99))/1e3)
	ws.Within = append(ws.Within, float64(within)/float64(sent))
	ws.all = append(ws.all, lat...)
}

// p999 is the whole-run p99.9 in µs; it sorts the latencies in place.
func (ws *windowStats) p999() float64 {
	sortInt64s(ws.all)
	return float64(percentile(ws.all, 0.999)) / 1e3
}

// against returns nominal times the median over windows of vals[w]/ref[w]:
// the workload's figure with the reference's figure of the same window
// divided out and its usual value put back. Without a reference (ref empty or
// nominal 0) it is the plain median.
func against(vals, ref []float64, nominal float64) float64 {
	if len(ref) != len(vals) || nominal == 0 {
		return median(vals)
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v / ref[i] * nominal
	}
	return median(out)
}

// sample is one request of a wire run: when it was due (closed loops: when
// it was sent), when its reply arrived (0 = never), and whether the reply was
// the oracle's answer. ref marks a request sent to the reference.
type sample struct {
	due, done int64 // ns since the run's start
	ok        bool
	ref       bool
}

// cutWindows buckets samples by due time into windows of width ns over
// [from, to) and returns the workload's windows and the reference's. The
// first slice ns of every window carry the workload's traffic and the rest
// the reference's (slice == width: there is no reference, and ref stays
// empty). A request that was never answered, or answered wrongly, counts as
// sent but misses the limit. A window in which either side got no answer at
// all is dropped from both: a stall swallowed the slice.
func cutWindows(samples []sample, from, to, width, slice, limit int64) (ws, ref windowStats) {
	n := int((to - from) / width)
	if n <= 0 {
		return ws, ref
	}
	type side struct {
		lat                     []int64
		sent, completed, within int
	}
	wins := make([][2]side, n)
	for _, s := range samples {
		if s.due < from || s.due >= from+int64(n)*width {
			continue
		}
		sd := &wins[(s.due-from)/width][0]
		if s.ref {
			sd = &wins[(s.due-from)/width][1]
		}
		sd.sent++
		if s.done == 0 {
			continue
		}
		d := s.done - s.due
		sd.lat = append(sd.lat, d)
		if s.ok {
			sd.completed++
			if d <= limit {
				sd.within++
			}
		}
	}
	for w := range wins {
		own, other := &wins[w][0], &wins[w][1]
		if len(own.lat) == 0 || (slice < width && len(other.lat) == 0) {
			continue
		}
		sortInt64s(own.lat)
		ws.add(own.lat, own.sent, own.completed, own.within, float64(slice)/1e9)
		if slice < width {
			sortInt64s(other.lat)
			ref.add(other.lat, other.sent, other.completed, other.within, float64(width-slice)/1e9)
		}
	}
	return ws, ref
}

func sortInt64s(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }
