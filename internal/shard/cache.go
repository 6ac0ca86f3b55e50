package shard

import "neurolpm/internal/lcache"

// The sharded engine's result-cache plane (DESIGN.md §12) is one lcache.Pool:
// every cached call — a single-key lookup, one shard group of a batch —
// checks a spare out for exactly as long as it probes and fills, so a cache
// has one owner at a time and takes no locks. Invalidation does not live
// here: each shard's core engine carries its own epoch, and a cached entry is
// only ever probed under its own shard's epoch because the shard index is a
// pure function of the key.

// EnableCache installs the result-cache plane with per-cache tables of at
// most bytes bytes (≤ 0 disables). Not safe to call concurrently with
// lookups: enable before serving traffic.
func (r *router) EnableCache(bytes int) {
	if bytes <= 0 {
		r.cache = nil
		return
	}
	r.cache = lcache.NewPool(bytes)
}

// CacheEnabled reports whether the result-cache plane is installed.
func (r *router) CacheEnabled() bool { return r.cache != nil }
