package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// numBuckets is the bucket count of a log₂ histogram: bucket 0 holds the
// value 0 and bucket b (1..64) holds values v with bits.Len64(v) == b, i.e.
// v ∈ [2^(b−1), 2^b−1].
const numBuckets = 65

// padHistShard is one stripe of a Histogram. Each shard owns a contiguous
// bucket array plus the running sum, with tail padding so adjacent shards
// never share a cache line.
type padHistShard struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Uint64
	_      [cacheLine - 8*((numBuckets+1)%8)%cacheLine]byte
}

// Histogram is a lock-free log₂-bucketed histogram of uint64 observations.
// Observe costs two uncontended atomic adds; quantiles, counts and means
// are extracted from a Snapshot. Create with NewHistogram or a Registry.
type Histogram struct {
	shards []padHistShard
}

// NewHistogram returns a standalone (unregistered) histogram.
func NewHistogram() *Histogram {
	return &Histogram{shards: make([]padHistShard, numShards)}
}

// bucketOf maps a value to its log₂ bucket.
func bucketOf(v uint64) int { return bits.Len64(v) }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	s := &h.shards[shardIndex()]
	s.counts[bucketOf(v)].Add(1)
	s.sum.Add(v)
}

// ObserveInt records a non-negative int (negative values clamp to zero).
func (h *Histogram) ObserveInt(v int) {
	if v < 0 {
		v = 0
	}
	h.Observe(uint64(v))
}

// Snapshot is a point-in-time aggregation of a histogram. Methods on a
// Snapshot are pure; take one snapshot and query it repeatedly.
type Snapshot struct {
	Counts [numBuckets]uint64
	Sum    uint64
	Total  uint64
}

// Snapshot aggregates all shards. Concurrent with writers it is a
// consistent-enough view: every completed Observe is counted exactly once.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < numBuckets; b++ {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Sum += sh.sum.Load()
	}
	for _, c := range s.Counts {
		s.Total += c
	}
	return s
}

// Sub returns the bucket-wise difference s − b: the observations between
// two snapshots of one histogram, which is how a window is read off the
// cumulative series (b must be the earlier snapshot; buckets are monotonic,
// so clamping guards only against snapshots from different histograms).
func (s Snapshot) Sub(b Snapshot) Snapshot {
	var out Snapshot
	for i := range s.Counts {
		if s.Counts[i] > b.Counts[i] {
			out.Counts[i] = s.Counts[i] - b.Counts[i]
			out.Total += out.Counts[i]
		}
	}
	if s.Sum > b.Sum {
		out.Sum = s.Sum - b.Sum
	}
	return out
}

// bucketBounds returns the inclusive value range of bucket b.
func bucketBounds(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, 0
	}
	lo = uint64(1) << (b - 1)
	if b == 64 {
		return lo, math.MaxUint64
	}
	return lo, uint64(1)<<b - 1
}

// Mean returns the exact mean of all observations (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Total)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) by linear
// interpolation inside the covering log₂ bucket. The estimate is exact for
// values 0 and 1 and within a factor of two elsewhere — sufficient for the
// order-of-magnitude distributions the paper reasons about.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Total)
	var cum float64
	for b := 0; b < numBuckets; b++ {
		c := float64(s.Counts[b])
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(b)
			if c <= 1 || lo == hi {
				return float64(lo)
			}
			frac := (rank - cum) / c
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	// Fell off the end (rank == Total and rounding): highest non-empty bucket.
	for b := numBuckets - 1; b >= 0; b-- {
		if s.Counts[b] > 0 {
			_, hi := bucketBounds(b)
			return float64(hi)
		}
	}
	return 0
}

// Max returns the upper bound of the highest non-empty bucket.
func (s Snapshot) Max() uint64 {
	for b := numBuckets - 1; b >= 0; b-- {
		if s.Counts[b] > 0 {
			_, hi := bucketBounds(b)
			return hi
		}
	}
	return 0
}
