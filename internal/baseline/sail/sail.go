// Package sail implements the SAIL hardware-oriented LPM baseline (§3.3):
// leaf-pushed lookup tables split at bit levels 16, 24 and 32. Levels 16 and
// 24's bitmaps plus the chunk pointer table are SRAM-resident (the paper's
// ~2.25MB static allocation); the level-24 action chunks, level-32 pointer
// chunks and level-32 action chunks live in DRAM and are accessed through
// the cache, so the engine can be compared with NeuroLPM under the §10.2
// methodology.
//
// SAIL is IPv4-specific by construction (32-bit keys) and assumes one-byte
// action identifiers — the very restrictions the paper's multi-purpose
// requirements R1–R2 call out.
package sail

import (
	"fmt"
	"sort"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

const (
	// Width is the only key width SAIL supports.
	Width = 32

	noChunk  = 0xFFFF
	noAction = 0 // action ids are 1-based; 0 means "no rule"

	chunkEntries = 256
)

// Engine is a built SAIL engine.
type Engine struct {
	// SRAM-resident (static) structures.
	b16 bitset   // a longer-than-16 rule exists under this /16
	n16 []uint8  // leaf-pushed action id per /16
	c16 []uint16 // level-24 chunk id per /16 (noChunk when absent)
	b24 bitset   // a longer-than-24 rule exists under this /24

	// DRAM-resident structures, addressed via layout below.
	n24 [][]uint8  // level-24 action chunks (256 × 1B)
	c24 [][]uint16 // level-32 pointer chunks (256 × 2B), parallel to n24
	n32 [][]uint8  // level-32 action chunks (256 × 1B)

	actions []uint64 // action id (1-based) → action value
}

type bitset []uint64

func newBitset(n int) bitset       { return make(bitset, (n+63)/64) }
func (b bitset) set(i uint32)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) get(i uint32) bool { return b[i/64]&(1<<(i%64)) != 0 }

// Build constructs the SAIL tables from a 32-bit rule-set by leaf pushing.
// It fails when the rule-set is not 32-bit or needs more than 255 distinct
// actions (SAIL's one-byte action assumption).
func Build(rs *lpm.RuleSet) (*Engine, error) {
	if rs.Width != Width {
		return nil, fmt.Errorf("sail: only %d-bit rule-sets are supported, got %d", Width, rs.Width)
	}
	e := &Engine{
		b16: newBitset(1 << 16),
		n16: make([]uint8, 1<<16),
		c16: make([]uint16, 1<<16),
		b24: newBitset(1 << 24),
	}
	for i := range e.c16 {
		e.c16[i] = noChunk
	}
	actionID := map[uint64]uint8{}
	idOf := func(a uint64) (uint8, error) {
		if id, ok := actionID[a]; ok {
			return id, nil
		}
		if len(actionID) >= 255 {
			return 0, fmt.Errorf("sail: more than 255 distinct actions")
		}
		id := uint8(len(actionID) + 1)
		actionID[a] = id
		e.actions = append(e.actions, a)
		return id, nil
	}

	// Pass 1: leaf-push rules with len ≤ 16 into n16 (increasing length so
	// longer prefixes overwrite).
	for _, r := range sortedByLen(rs.Rules) {
		if r.Len > 16 {
			continue
		}
		id, err := idOf(r.Action)
		if err != nil {
			return nil, err
		}
		base := uint32(r.Prefix.Uint64() >> 16)
		span := uint32(1) << (16 - r.Len)
		for i := base; i < base+span; i++ {
			e.n16[i] = id
		}
	}
	// Pass 2: rules with len 17..24 populate level-24 chunks; chunk entries
	// start as the pushed-down level-16 action.
	chunk24 := func(idx16 uint32) int {
		if e.c16[idx16] != noChunk {
			return int(e.c16[idx16])
		}
		c := len(e.n24)
		if c >= noChunk {
			// 65535 chunks × 256 entries = the whole /24 space; unreachable
			// for valid rule-sets but guard anyway.
			return -1
		}
		chunk := make([]uint8, chunkEntries)
		for i := range chunk {
			chunk[i] = e.n16[idx16]
		}
		ptrs := make([]uint16, chunkEntries)
		for i := range ptrs {
			ptrs[i] = noChunk
		}
		e.n24 = append(e.n24, chunk)
		e.c24 = append(e.c24, ptrs)
		e.c16[idx16] = uint16(c)
		e.b16.set(idx16)
		return c
	}
	for _, r := range sortedByLen(rs.Rules) {
		if r.Len <= 16 || r.Len > 24 {
			continue
		}
		id, err := idOf(r.Action)
		if err != nil {
			return nil, err
		}
		addr := uint32(r.Prefix.Uint64())
		idx16 := addr >> 16
		c := chunk24(idx16)
		if c < 0 {
			return nil, fmt.Errorf("sail: level-24 chunk space exhausted")
		}
		base := (addr >> 8) & 0xFF
		span := uint32(1) << (24 - r.Len)
		for i := base; i < base+span; i++ {
			e.n24[c][i] = id
		}
	}
	// Pass 3: rules with len 25..32 populate level-32 chunks.
	chunk32 := func(idx16 uint32, off24 uint32) (int, error) {
		c16 := chunk24(idx16)
		if c16 < 0 {
			return -1, fmt.Errorf("sail: level-24 chunk space exhausted")
		}
		if p := e.c24[c16][off24]; p != noChunk {
			return int(p), nil
		}
		c := len(e.n32)
		if c >= noChunk {
			return -1, fmt.Errorf("sail: level-32 chunk space exhausted")
		}
		chunk := make([]uint8, chunkEntries)
		for i := range chunk {
			chunk[i] = e.n24[c16][off24]
		}
		e.n32 = append(e.n32, chunk)
		e.c24[c16][off24] = uint16(c)
		e.b24.set(idx16<<8 | off24)
		return c, nil
	}
	for _, r := range sortedByLen(rs.Rules) {
		if r.Len <= 24 {
			continue
		}
		id, err := idOf(r.Action)
		if err != nil {
			return nil, err
		}
		addr := uint32(r.Prefix.Uint64())
		c, err := chunk32(addr>>16, (addr>>8)&0xFF)
		if err != nil {
			return nil, err
		}
		base := addr & 0xFF
		span := uint32(1) << (32 - r.Len)
		for i := base; i < base+span; i++ {
			e.n32[c][i] = id
		}
	}
	return e, nil
}

// sortedByLen returns the rules ordered by increasing prefix length so that
// leaf pushing overwrites shorter matches with longer ones.
func sortedByLen(rules []lpm.Rule) []lpm.Rule {
	out := append([]lpm.Rule(nil), rules...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Len < out[j].Len })
	return out
}

// DRAM layout: n24 chunks, then c24 pointer chunks, then n32 chunks.
func (e *Engine) n24Addr(chunk int, off uint32) uint64 {
	return uint64(chunk)*chunkEntries + uint64(off)
}

func (e *Engine) c24Addr(chunk int, off uint32) uint64 {
	base := uint64(len(e.n24)) * chunkEntries
	return base + uint64(chunk)*chunkEntries*2 + uint64(off)*2
}

func (e *Engine) n32Addr(chunk int, off uint32) uint64 {
	base := uint64(len(e.n24))*chunkEntries + uint64(len(e.c24))*chunkEntries*2
	return base + uint64(chunk)*chunkEntries + uint64(off)
}

// Lookup implements lpm.Matcher (no traffic accounting).
func (e *Engine) Lookup(k keys.Value) (uint64, bool) {
	return e.LookupMem(k, cachesim.Null{})
}

// LookupMem performs the SAIL query, reading DRAM-resident tables through
// mem: the level-24 action byte, and for longer matches the level-32 chunk
// pointer (2B) followed by the level-32 action byte — SAIL's two dependent
// DRAM accesses in the worst case (§10.2).
func (e *Engine) LookupMem(k keys.Value, mem cachesim.Mem) (uint64, bool) {
	addr := uint32(k.Uint64())
	idx16 := addr >> 16
	if !e.b16.get(idx16) {
		return e.action(e.n16[idx16])
	}
	c16 := int(e.c16[idx16])
	off24 := (addr >> 8) & 0xFF
	if !e.b24.get(addr >> 8) {
		mem.Read(e.n24Addr(c16, off24), 1)
		return e.action(e.n24[c16][off24])
	}
	mem.Read(e.c24Addr(c16, off24), 2)
	c32 := int(e.c24[c16][off24])
	off32 := addr & 0xFF
	mem.Read(e.n32Addr(c32, off32), 1)
	return e.action(e.n32[c32][off32])
}

func (e *Engine) action(id uint8) (uint64, bool) {
	if id == noAction {
		return 0, false
	}
	return e.actions[id-1], true
}

// StaticSRAMBytes is SAIL's fixed on-chip allocation: the level-16 bitmap
// and action/pointer arrays plus the level-24 bitmap — about 2.26MB, which
// is why the paper notes SAIL needs at least 2.4MB of SRAM to run.
func (e *Engine) StaticSRAMBytes() int {
	b16 := (1 << 16) / 8 // 8 KB
	n16 := (1 << 16) * 1 // 64 KB (1B leaf-pushed action)
	c16 := (1 << 16) * 2 // 128 KB chunk pointers
	b24 := (1 << 24) / 8 // 2 MB
	return b16 + n16 + c16 + b24
}

// DRAMBytes is the off-chip footprint of the chunked tables.
func (e *Engine) DRAMBytes() int {
	return len(e.n24)*chunkEntries + len(e.c24)*chunkEntries*2 + len(e.n32)*chunkEntries
}

// WorstCaseDRAMAccesses is SAIL's deterministic bound: two dependent reads.
func (e *Engine) WorstCaseDRAMAccesses() int { return 2 }
