// Package bucket implements the bucketization that lets NeuroLPM scale past
// on-chip SRAM (paper §7): every k adjacent ranges are merged into one
// bucket-directory range kept in SRAM, while the original ranges — the
// bucket array — live in DRAM and are fetched one whole bucket per query.
// The per-query DRAM traffic is therefore a single access whose size is set
// by the bucket size, independent of the RQRMI error bound.
package bucket

import (
	"fmt"

	"neurolpm/internal/keys"
	"neurolpm/internal/ranges"
	"neurolpm/internal/telemetry"
)

// Every simulated DRAM fetch is booked through CountFetches — core calls it
// once per lookup, or once per block from the batch tail, before it counts
// the lookups themselves. core divides this counter by
// its bucketized-lookup counter to expose the §7 "exactly one dependent
// DRAM access per query" invariant as a live gauge.
var (
	metFetches = telemetry.Default.Counter("neurolpm_bucket_fetches_total",
		"DRAM bucket fetches issued (paper §7)")
	metFetchBytes = telemetry.Default.Counter("neurolpm_bucket_fetch_bytes_total",
		"Bytes of bucket data fetched from DRAM (paper §7.1 layout)")
)

// Directory is the SRAM-resident compression of a range array.
//
// It uses the paper's optimized layout (§7.1): directory entry i is simply
// every k-th range boundary, so one range bound of each bucket already
// resides in SRAM and only k−1 bounds must be fetched from DRAM.
type Directory struct {
	K     int // ranges per bucket
	array *ranges.Array
	lows  []keys.Value // lows[i] == array.Entries[i*K].Low
}

// Build groups the range array into buckets of k ranges. k must be at least 2
// (k == 1 would reproduce the range array itself; use the SRAM-only design
// instead).
func Build(a *ranges.Array, k int) (*Directory, error) {
	if k < 2 {
		return nil, fmt.Errorf("bucket: bucket size %d must be >= 2", k)
	}
	n := (a.Len() + k - 1) / k
	d := &Directory{K: k, array: a, lows: make([]keys.Value, n)}
	for i := 0; i < n; i++ {
		d.lows[i] = a.Entries[i*k].Low
	}
	return d, nil
}

// Len returns the number of buckets (implements rqrmi.Index).
func (d *Directory) Len() int { return len(d.lows) }

// Low returns the lower bound of bucket i (implements rqrmi.Index).
func (d *Directory) Low(i int) keys.Value { return d.lows[i] }

// Array returns the underlying (DRAM-resident) range array.
func (d *Directory) Array() *ranges.Array { return d.array }

// Bounds returns the half-open range-index span [start, end) of bucket b.
func (d *Directory) Bounds(b int) (start, end int) {
	start = b * d.K
	end = start + d.K
	if end > d.array.Len() {
		end = d.array.Len()
	}
	return start, end
}

// Search finds, within bucket b, the range containing key k (which must lie
// within the bucket's span — i.e. b == the directory index found for k). It
// returns the global range index and the number of comparisons the bucket
// search performed. This models the hardware Bucket Search module, which
// scans the fetched bucket.
func (d *Directory) Search(b int, k keys.Value) (idx, comparisons int) {
	start, end := d.Bounds(b)
	// The hardware compares the fetched bounds in order; the entry with the
	// greatest Low ≤ k wins. A linear scan over ≤ k entries mirrors that.
	idx = start
	for i := start + 1; i < end; i++ {
		comparisons++
		if k.Less(d.array.Entries[i].Low) {
			break
		}
		idx = i
	}
	return idx, comparisons
}

// SizeBytes is the directory's SRAM footprint: one range bound per bucket.
func (d *Directory) SizeBytes() int {
	return d.Len() * d.array.BytesPerEntry()
}

// BucketBytes is the DRAM fetch size of one query: the k−1 bounds that are
// not already in SRAM (§7.1), padded to the full per-bucket layout used in
// DRAM addressing.
func (d *Directory) BucketBytes() int {
	return (d.K - 1) * d.array.BytesPerEntry()
}

// DRAMAddr returns the byte address and fetch size of bucket b in the
// simulated DRAM: buckets are laid out contiguously, and the fetch skips the
// bound that already resides in SRAM.
func (d *Directory) DRAMAddr(b int) (addr uint64, size int) {
	eb := uint64(d.array.BytesPerEntry())
	stride := uint64(d.K) * eb
	return uint64(b)*stride + eb, d.BucketBytes()
}

// CountFetches books n bucket fetches and their bytes.
func (d *Directory) CountFetches(n uint64) {
	metFetches.Add(n)
	metFetchBytes.Add(n * uint64(d.BucketBytes()))
}
