package workload

import (
	"fmt"
	"math/rand"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// UpdateOp is one churn operation kind.
type UpdateOp uint8

const (
	UpdateInsert UpdateOp = iota
	UpdateDelete
	UpdateModify
)

func (op UpdateOp) String() string {
	switch op {
	case UpdateInsert:
		return "insert"
	case UpdateDelete:
		return "delete"
	case UpdateModify:
		return "modify"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Update is one scheduled rule-table mutation. At is the open-loop send
// offset from stream start (0 when the stream is unpaced).
type Update struct {
	At   time.Duration
	Op   UpdateOp
	Rule lpm.Rule
}

// UpdateConfig parameterizes GenerateUpdates.
type UpdateConfig struct {
	// Count is the total number of updates in the stream.
	Count int
	// Rate is the offered update rate in updates/sec; arrivals are Poisson
	// (exponential inter-arrival times). ≤ 0 leaves every At at 0: the
	// consumer applies the stream as fast as it likes.
	Rate float64
	// Sites is the number of distinct flap prefixes the stream cycles
	// through (insert → modify* → delete → insert …). 0 picks a default of
	// Count/4 (min 1).
	Sites int
	// ActionBase is the first action value; site i's rule carries
	// ActionBase+i (modifies flip the low bit so the change is observable).
	ActionBase uint64
	// Seed makes the stream deterministic.
	Seed int64
}

// UpdateStream is a calibrated churn stream against a standing rule-set.
// Every rule is full-width at a site where the base set has no exact-width
// rule, so applying any prefix of the stream changes answers only for the
// site keys themselves: a trie oracle built over the base rule-set stays
// valid for every other key; a lookup of a site is checked against the
// answers before and after its updates.
type UpdateStream struct {
	Updates []Update
	Sites   []keys.Value
}

// GenerateUpdates builds a deterministic open-loop churn stream against rs,
// the one the repository benchmark's wire_churn replays over the wire next
// to the query trace. The same (rs, cfg) always yields the same stream.
func GenerateUpdates(rs *lpm.RuleSet, cfg UpdateConfig) (*UpdateStream, error) {
	if cfg.Count <= 0 {
		return &UpdateStream{}, nil
	}
	nSites := cfg.Sites
	if nSites <= 0 {
		nSites = max(cfg.Count/4, 1)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mask := keys.MaxValue(rs.Width)

	// Pick fresh full-width sites: no exact-width rule in the base set, no
	// duplicates among the sites. Bounded retries so a pathological rule-set
	// fails loudly instead of spinning.
	sites := make([]keys.Value, 0, nSites)
	seen := make(map[keys.Value]struct{}, nSites)
	for tries := 0; len(sites) < nSites; tries++ {
		if tries > 64*nSites {
			return nil, fmt.Errorf("workload: could not find %d fresh update sites (width %d)", nSites, rs.Width)
		}
		p := keys.FromParts(rng.Uint64(), rng.Uint64()).And(mask)
		if _, dup := seen[p]; dup {
			continue
		}
		if rs.Find(p, rs.Width) != lpm.NoMatch {
			continue
		}
		seen[p] = struct{}{}
		sites = append(sites, p)
	}

	// present[i] tracks whether site i currently carries a rule, so the
	// stream is always applicable in order: deletes and modifies only hit
	// rules a prior insert created.
	present := make([]bool, nSites)
	updates := make([]Update, 0, cfg.Count)
	var at time.Duration
	for i := 0; i < cfg.Count; i++ {
		if cfg.Rate > 0 {
			at += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		}
		var u Update
		site := rng.Intn(nSites)
		r := lpm.Rule{Prefix: sites[site], Len: rs.Width, Action: cfg.ActionBase + uint64(site)}
		switch {
		case !present[site]:
			u = Update{At: at, Op: UpdateInsert, Rule: r}
			present[site] = true
		case rng.Intn(2) == 0:
			r.Action ^= 1 // observable action change
			u = Update{At: at, Op: UpdateModify, Rule: r}
		default:
			u = Update{At: at, Op: UpdateDelete, Rule: r}
			present[site] = false
		}
		updates = append(updates, u)
	}
	return &UpdateStream{Updates: updates, Sites: sites}, nil
}
