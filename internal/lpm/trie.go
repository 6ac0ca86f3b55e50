package lpm

import "neurolpm/internal/keys"

// Trie is a binary (unibit) trie over a rule-set: the classic exact LPM
// structure. It is the fast correctness oracle against which the learned
// engine and the hardware baselines are verified.
type Trie struct {
	width int
	nodes []trieNode
}

type trieNode struct {
	child [2]int32 // 0 = none
	rule  int32    // index into the source rule slice, or NoMatch
}

// newTrie builds a trie from the rule-set. Rule indexes reported by Lookup
// refer to s.Rules.
func newTrie(s *RuleSet) *Trie {
	t := &Trie{width: s.Width, nodes: make([]trieNode, 1, 2*len(s.Rules)+1)}
	t.nodes[0] = trieNode{rule: NoMatch}
	for i, r := range s.Rules {
		t.insert(r, int32(i))
	}
	return t
}

func (t *Trie) insert(r Rule, idx int32) {
	cur := int32(0)
	for depth := 0; depth < r.Len; depth++ {
		bit := r.Prefix.Bit(t.width - 1 - depth)
		next := t.nodes[cur].child[bit]
		if next == 0 {
			t.nodes = append(t.nodes, trieNode{rule: NoMatch})
			next = int32(len(t.nodes) - 1)
			t.nodes[cur].child[bit] = next
		}
		cur = next
	}
	t.nodes[cur].rule = idx
}

// lookup returns the index of the longest-prefix rule matching k, or NoMatch.
func (t *Trie) lookup(k keys.Value) int {
	best := int32(NoMatch)
	cur := int32(0)
	for depth := 0; ; depth++ {
		if r := t.nodes[cur].rule; r != NoMatch {
			best = r
		}
		if depth >= t.width {
			break
		}
		next := t.nodes[cur].child[k.Bit(t.width-1-depth)]
		if next == 0 {
			break
		}
		cur = next
	}
	return int(best)
}

// Matcher is the minimal LPM query interface shared by the oracle, the
// learned engine, and all baselines. Lookup returns the matched rule's
// action; ok is false when no rule covers the key.
type Matcher interface {
	Lookup(k keys.Value) (action uint64, ok bool)
}

// TrieMatcher adapts a Trie to the Matcher interface.
type TrieMatcher struct {
	Trie  *Trie
	Rules []Rule
}

// NewTrieMatcher builds the oracle matcher for a rule-set.
func NewTrieMatcher(s *RuleSet) *TrieMatcher {
	return &TrieMatcher{Trie: newTrie(s), Rules: s.Rules}
}

// Lookup implements Matcher.
func (m *TrieMatcher) Lookup(k keys.Value) (uint64, bool) {
	i := m.Trie.lookup(k)
	if i == NoMatch {
		return 0, false
	}
	return m.Rules[i].Action, true
}
