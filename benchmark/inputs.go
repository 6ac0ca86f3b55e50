package main

import (
	"fmt"
	"math/rand"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/wire"
	"neurolpm/internal/workload"
)

const (
	keyWidth = 32

	// openRate is wire_open's fixed offered rate; it sits near a fifth of
	// wire_burst's capacity on the sizing box, so no standing backlog forms
	// and latency is queue wait, not saturation.
	openRate = 40000.0
	// churnLookupRate and churnRate are wire_churn's offered lookup and
	// update rates. Both are sized down from the issue's 40000 and 100 (the
	// issue's rule: halve until the run is valid; README.md has the sizing
	// runs): while a shard retrains the seed server answers fewer than 40000
	// lookups/s, so at that rate the backlog never reaches a steady state,
	// and an update waits for the commit that holds its shard, about a third
	// of a second, so one connection carries three a second at most.
	churnLookupRate = 10000.0
	churnRate       = 3.125
	churnSites      = 256
	// siteEvery makes every siteEvery-th churn lookup target a flap site.
	siteEvery = 20
	// churnActionBase keeps flap-site actions disjoint from generated rules'.
	churnActionBase = uint64(1) << 40
)

// inputs is everything one run derives from its seed. The program under
// test sees only the rule file (serving workloads) or the rule-set (library
// workloads) and the keys sent to it.
type inputs struct {
	rs    *lpm.RuleSet
	trace []keys.Value
	want  []wire.Result // the trie oracle's answer per trace key

	oracle *lpm.TrieMatcher

	generateS  float64 // workload.Generate wall time
	trieBuildS float64 // lpm.NewTrieMatcher wall time
}

// makeInputs generates the rule-set, the workload's key trace and the oracle
// answers. uniform selects the locality-free trace of lib_uniform; every
// other workload replays the Zipf+locality trace.
func makeInputs(seed int64, nRules, nKeys int, uniform bool) (*inputs, error) {
	in := &inputs{}
	t := time.Now()
	rs, err := workload.Generate(workload.RIPE(), nRules, seed)
	if err != nil {
		return nil, fmt.Errorf("generate rules: %w", err)
	}
	in.generateS = time.Since(t).Seconds()
	in.rs = rs
	if uniform {
		in.trace = workload.UniformTrace(keyWidth, nKeys, seed+2)
	} else {
		in.trace, err = workload.GenerateTrace(rs, workload.DefaultTrace(nKeys, seed+1))
		if err != nil {
			return nil, fmt.Errorf("generate trace: %w", err)
		}
	}
	t = time.Now()
	in.oracle = lpm.NewTrieMatcher(rs)
	in.trieBuildS = time.Since(t).Seconds()
	in.want = make([]wire.Result, len(in.trace))
	for i, k := range in.trace {
		a, ok := in.oracle.Lookup(k)
		in.want[i] = wire.Result{Action: a, Matched: ok}
	}
	return in, nil
}

// poisson returns ascending due offsets (ns) of Poisson arrivals at rate
// per second over [0, span).
func poisson(rng *rand.Rand, rate float64, span time.Duration) []int64 {
	out := make([]int64, 0, int(rate*span.Seconds()*1.05)+16)
	var at float64
	for {
		at += rng.ExpFloat64() / rate * 1e9
		if at >= float64(span) {
			return out
		}
		out = append(out, int64(at))
	}
}

// churn is wire_churn's update side: the stream, and for every flap site the
// answers a lookup of that key may legally see while the stream is applied.
type churn struct {
	updates []workload.Update
	sites   []keys.Value
	// siteIdx maps a flap-site key to its index in sites.
	siteIdx map[keys.Value]int
	// base is the oracle's answer for each site before any update.
	base []wire.Result
}

// makeChurn generates the update stream for one run of span length. The
// stream is sized half again past the run so it never has to be replayed: a
// server that already applied it would answer a replay with "already
// installed" errors.
func makeChurn(in *inputs, seed int64, span time.Duration) (*churn, error) {
	count := int(churnRate*span.Seconds()*1.5) + 64
	st, err := workload.GenerateUpdates(in.rs, workload.UpdateConfig{
		Count: count, Rate: churnRate, Sites: churnSites,
		ActionBase: churnActionBase, Seed: seed + 3,
	})
	if err != nil {
		return nil, fmt.Errorf("generate updates: %w", err)
	}
	// The stream starts with the run, so the first commit, and with it the
	// retraining the workload is about, begins inside the warm-up.
	for i, first := 0, st.Updates[0].At; i < len(st.Updates); i++ {
		st.Updates[i].At -= first
	}
	ch := &churn{updates: st.Updates, sites: st.Sites, siteIdx: make(map[keys.Value]int, len(st.Sites))}
	for i, k := range st.Sites {
		ch.siteIdx[k] = i
		a, ok := in.oracle.Lookup(k)
		ch.base = append(ch.base, wire.Result{Action: a, Matched: ok})
	}
	return ch, nil
}

// legal reports whether r is an answer a lookup of flap site i may see: the
// base rule-set's answer (site absent), the site's action, or that action
// with its low bit flipped (after a modify). Anything else is a torn read.
func (ch *churn) legal(i int, r wire.Result) bool {
	if r == ch.base[i] {
		return true
	}
	a := churnActionBase + uint64(i)
	return r.Matched && (r.Action == a || r.Action == a^1)
}
