// Package strmatch implements the string pattern-matching application of
// LPM (paper App 4, §3.1): dictionaries are compiled both into a classic
// Aho–Corasick automaton (the reference scanner used by NIDS tools such as
// Snort and ClamAV) and into LPM rules over a fixed-width byte window, so a
// multi-purpose LPM engine can serve as the matching backend. The resulting
// rule-sets have the broad prefix-length distribution of Fig 2 that defeats
// routing-specialized engines.
package strmatch

// Match reports pattern p starting at byte offset Pos of the scanned text.
type Match struct {
	Pos     int
	Pattern int // index into the dictionary
}

// AhoCorasick is a goto/fail automaton over byte strings.
type AhoCorasick struct {
	patterns [][]byte
	next     []map[byte]int32
	fail     []int32
	// out[s] lists patterns ending at state s (including via fail links).
	out [][]int32
}

// NewAhoCorasick builds the automaton. Empty pattern lists are allowed and
// match nothing.
func NewAhoCorasick(patterns []string) *AhoCorasick {
	a := &AhoCorasick{
		next: []map[byte]int32{{}},
		fail: []int32{0},
		out:  [][]int32{nil},
	}
	for i, p := range patterns {
		a.patterns = append(a.patterns, []byte(p))
		a.insert([]byte(p), int32(i))
	}
	a.buildFailLinks()
	return a
}

func (a *AhoCorasick) insert(p []byte, id int32) {
	s := int32(0)
	for _, b := range p {
		n, ok := a.next[s][b]
		if !ok {
			n = int32(len(a.next))
			a.next = append(a.next, map[byte]int32{})
			a.fail = append(a.fail, 0)
			a.out = append(a.out, nil)
			a.next[s][b] = n
		}
		s = n
	}
	if len(p) > 0 {
		a.out[s] = append(a.out[s], id)
	}
}

// buildFailLinks runs the standard BFS: fail(s) is the longest proper
// suffix of s's string that is also a state; outputs accumulate along fail
// chains.
func (a *AhoCorasick) buildFailLinks() {
	var queue []int32
	for _, n := range a.next[0] {
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for b, n := range a.next[s] {
			queue = append(queue, n)
			f := a.fail[s]
			for f != 0 {
				if t, ok := a.next[f][b]; ok {
					f = t
					goto linked
				}
				f = a.fail[f]
			}
			if t, ok := a.next[0][b]; ok && t != n {
				f = t
			}
		linked:
			a.fail[n] = f
			a.out[n] = append(a.out[n], a.out[f]...)
		}
	}
}

// scan returns every occurrence of every pattern in text, in increasing
// end-position order.
func (a *AhoCorasick) scan(text []byte) []Match {
	var out []Match
	s := int32(0)
	for i, b := range text {
		for {
			if n, ok := a.next[s][b]; ok {
				s = n
				break
			}
			if s == 0 {
				break
			}
			s = a.fail[s]
		}
		for _, id := range a.out[s] {
			out = append(out, Match{Pos: i + 1 - len(a.patterns[id]), Pattern: int(id)})
		}
	}
	return out
}

// LongestAt returns, for each text offset, the index of the longest pattern
// starting there (−1 when none) — the query the LPM-window scanner answers.
func (a *AhoCorasick) LongestAt(text []byte) []int {
	best := make([]int, len(text))
	for i := range best {
		best[i] = -1
	}
	for _, m := range a.scan(text) {
		cur := best[m.Pos]
		if cur == -1 || len(a.patterns[m.Pattern]) > len(a.patterns[cur]) {
			best[m.Pos] = m.Pattern
		}
	}
	return best
}
