// Package treebitmap implements the Tree Bitmap LPM baseline (§3.3): a
// multibit trie with stride 8 whose nodes are 64-byte chunks, each holding an
// internal bitmap (matching prefixes of the next 0..7 bits), an external
// bitmap (which 8-bit extensions have children) and result storage. A 32-bit
// query traverses up to four chunks; the root chunk is SRAM-resident and the
// rest are read from DRAM through the cache, with the poor spatial locality
// the paper highlights.
package treebitmap

import (
	"fmt"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// stride is the bits consumed per trie level (the paper's depth-8 subtree
// chunks).
const stride = 8

// chunkBytes is the modeled size of one trie node in memory: the 255-bit
// internal bitmap + 256-bit external bitmap + child/result pointers ≈ 64B.
const chunkBytes = 64

// node is one stride-8 trie node. The internal prefix tree is heap-indexed:
// slot 1 is the zero-length prefix, slots 2p / 2p+1 extend p with 0 / 1, so
// prefixes of 0..7 bits occupy slots 1..255. Real nodes hold few prefixes,
// so the slots are stored sparsely (the 64-byte chunk in the modeled memory
// is a bitmap; the software representation just needs the same contents).
type node struct {
	id       int // DRAM chunk id (root = 0)
	internal map[uint16]uint64
	children map[uint8]*node
}

// Engine is a built Tree Bitmap engine.
type Engine struct {
	width int
	root  *node
	nodes []*node // by id, BFS order
}

// Build constructs the trie. Any key width that is a multiple of the stride
// is supported; depth grows linearly with width (§6.4's point that trie
// engines scale poorly in bit-width).
func Build(rs *lpm.RuleSet) (*Engine, error) {
	if rs.Width%stride != 0 {
		return nil, fmt.Errorf("treebitmap: width %d is not a multiple of the stride %d", rs.Width, stride)
	}
	e := &Engine{width: rs.Width, root: newNode()}
	for _, r := range rs.Rules {
		e.insert(r)
	}
	// Assign chunk ids in BFS order (the allocation order a builder would
	// use, giving siblings adjacent addresses).
	e.nodes = e.nodes[:0]
	queue := []*node{e.root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.id = len(e.nodes)
		e.nodes = append(e.nodes, n)
		for b := 0; b < 256; b++ {
			if c, ok := n.children[uint8(b)]; ok {
				queue = append(queue, c)
			}
		}
	}
	return e, nil
}

func (e *Engine) insert(r lpm.Rule) {
	n := e.root
	depth := 0
	for r.Len-depth >= stride {
		b := byteAt(r.Prefix, e.width, depth)
		c, ok := n.children[b]
		if !ok {
			c = newNode()
			n.children[b] = c
		}
		n = c
		depth += stride
	}
	// Remaining r.Len−depth bits (0..7) index the internal prefix tree.
	rem := r.Len - depth
	slot := uint16(1)
	for i := 0; i < rem; i++ {
		bit := r.Prefix.Bit(e.width - 1 - depth - i)
		slot = slot*2 + uint16(bit)
	}
	n.internal[slot] = r.Action
}

func newNode() *node {
	return &node{internal: map[uint16]uint64{}, children: map[uint8]*node{}}
}

// byteAt extracts the stride byte starting at bit offset depth from the top.
func byteAt(v keys.Value, width, depth int) uint8 {
	return uint8(v.Shr(uint(width-depth-stride)).Uint64() & 0xFF)
}

// Lookup implements lpm.Matcher.
func (e *Engine) Lookup(k keys.Value) (uint64, bool) {
	return e.LookupMem(k, cachesim.Null{})
}

// LookupMem walks the trie; every visited node except the SRAM-resident
// root costs one 64-byte chunk read through mem.
func (e *Engine) LookupMem(k keys.Value, mem cachesim.Mem) (uint64, bool) {
	n := e.root
	depth := 0
	var best uint64
	found := false
	for {
		if n != e.root {
			mem.Read(uint64(n.id)*chunkBytes, chunkBytes)
		}
		// Longest matching internal prefix: walk the heap path for the next
		// up-to-7 bits and remember the deepest valid slot.
		slot := uint16(1)
		if a, ok := n.internal[slot]; ok {
			best, found = a, true
		}
		for i := 0; i < stride-1 && depth+i < e.width; i++ {
			slot = slot*2 + uint16(k.Bit(e.width-1-depth-i))
			if a, ok := n.internal[slot]; ok {
				best, found = a, true
			}
		}
		if depth+stride > e.width {
			break
		}
		c, ok := n.children[byteAt(k, e.width, depth)]
		if !ok {
			break
		}
		n = c
		depth += stride
	}
	return best, found
}

// StaticSRAMBytes is the root chunk kept on-chip.
func (e *Engine) StaticSRAMBytes() int { return chunkBytes }

// WorstCaseDRAMAccesses is the trie depth minus the on-chip root — three
// dependent reads for 32-bit keys (§10.2), growing linearly with bit-width.
func (e *Engine) WorstCaseDRAMAccesses() int { return e.width/stride - 1 }
