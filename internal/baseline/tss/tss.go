// Package tss implements the Tuple Space Search LPM baseline (§3.3): one
// exact-match hash table per distinct prefix length, probed from the longest
// length to the shortest until a match is found. Its query cost — and its
// weakness, per the paper — is proportional to the number of distinct prefix
// lengths in the rule-set, which is exactly what the per-query probe count
// exposes.
package tss

import (
	"sort"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// slotBytes models one hash-table bucket read (key + action + chain word).
const slotBytes = 16

// Engine is a built TSS engine.
type Engine struct {
	width   int
	lengths []int // distinct prefix lengths, descending
	tables  []map[keys.Value]uint64
	bases   []uint64 // simulated DRAM base address per table
	slots   []uint64 // simulated table capacity (power of two)
}

// Build indexes the rule-set into per-length hash tables.
func Build(rs *lpm.RuleSet) (*Engine, error) {
	byLen := map[int]map[keys.Value]uint64{}
	for _, r := range rs.Rules {
		t, ok := byLen[r.Len]
		if !ok {
			t = map[keys.Value]uint64{}
			byLen[r.Len] = t
		}
		t[r.Prefix] = r.Action
	}
	e := &Engine{width: rs.Width}
	for l := range byLen {
		e.lengths = append(e.lengths, l)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(e.lengths)))
	base := uint64(0)
	for _, l := range e.lengths {
		t := byLen[l]
		e.tables = append(e.tables, t)
		slots := uint64(1)
		for slots < uint64(2*len(t)) {
			slots <<= 1
		}
		e.bases = append(e.bases, base)
		e.slots = append(e.slots, slots)
		base += slots * slotBytes
	}
	return e, nil
}

// NumTables returns the number of hash tables — the paper's table-count
// sensitivity metric (e.g. >26 for Snort string matching, ~24 for routing).
func (e *Engine) NumTables() int { return len(e.tables) }

// Lookup implements lpm.Matcher.
func (e *Engine) Lookup(k keys.Value) (uint64, bool) {
	a, ok, _ := e.LookupMem(k, cachesim.Null{})
	return a, ok
}

// LookupMem probes tables longest-first, reading one hash bucket through mem
// per probe, and returns the match plus the number of tables probed.
func (e *Engine) LookupMem(k keys.Value, mem cachesim.Mem) (action uint64, ok bool, probes int) {
	for i, l := range e.lengths {
		probes++
		key := k
		if l < e.width {
			shift := uint(e.width - l)
			key = k.Shr(shift).Shl(shift)
		}
		mem.Read(e.bases[i]+(hash(key)%e.slots[i])*slotBytes, slotBytes)
		if a, hit := e.tables[i][key]; hit {
			return a, true, probes
		}
	}
	return 0, false, probes
}

// hash is FNV-1a over the key limbs.
func hash(k keys.Value) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, limb := range [2]uint64{k.Hi, k.Lo} {
		for i := 0; i < 8; i++ {
			h ^= (limb >> (8 * i)) & 0xFF
			h *= prime
		}
	}
	return h
}
