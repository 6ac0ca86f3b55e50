package experiments

import (
	"fmt"
	"slices"
	"time"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/fault"
	"neurolpm/internal/hwsim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/tier"
	"neurolpm/internal/workload"
)

// TieredCell is one row of E28, the tiered-memory bucket store experiment
// (DESIGN.md §16): fast-tier footprint and analytic tail latency of
// hot/cold bucket placement under a skewed trace, against the uniform
// all-fast baseline, at the 10M-rule scale the tentpole targets.
type TieredCell struct {
	Config      string
	Rules       int
	FastMiB     float64
	FastSavingX float64 // uniform fast-tier bytes / this row's fast-tier bytes
	ColdPct     float64 // cold fetches as % of the measured pass's queries
	P99Cycles   uint64
	HeadroomX   float64 // all-hot p99 cycles / this row's p99 cycles
	Promotions  int
	Demotions   int
	Mismatches  int // disagreements with the trie oracle (must be 0)
}

// tieredRules picks the rule count: the tentpole's 10M at paper scale,
// the ripe quota otherwise.
func tieredRules(sc Scale) int {
	if sc.TraceLen >= PaperScale().TraceLen {
		return 10_000_000
	}
	return sc.Rules["ripe"]
}

// Tiered measures the two-tier bucket store on one RIPE-profile engine:
//
//   - "all-hot": every bucket in the fast tier — the uniform baseline whose
//     footprint and p99 the other rows are normalized against.
//   - "tiered": the deterministic placement regime. Everything demotes, one
//     warm-up pass feeds the burst counters, and a burst-driven rebalance
//     promotes exactly the trace's working set. The measured pass must see
//     zero cold fetches (p99 headroom 1.0) while the fast tier holds only
//     the touched buckets.
//   - "tiered sketch": placement handed to the decaying hotness sketch
//     (DemoteBelow=1) with rebalance passes between trace replays — the
//     regime the lpmserve background rebalancer runs in. It rides the 1:64
//     hotness sampling phase, which depends on global lookup counts, so its
//     ratios are informative; every other row's are seed-reproducible and
//     TestTiered pins them exactly.
//   - "+storm": the fault matrix row (always quick-sized — correctness, not
//     scale): a tiered sharded updatable under 100% retrain failure with
//     migrations churning mid-storm, checked against the merged oracle.
//
// Every pass checks every traced answer against the trie oracle.
func Tiered(sc Scale) ([]TieredCell, error) {
	n := tieredRules(sc)
	rs, err := workload.Generate(workload.RIPE(), n, sc.Seed)
	if err != nil {
		return nil, err
	}
	cfg := sc.engineConfig()
	cfg.Tier = tier.Config{Enabled: true}
	eng, err := core.Build(rs, cfg)
	if err != nil {
		return nil, err
	}
	ts := eng.TierStore()
	oracle := lpm.NewTrieMatcher(rs)
	trace, err := workload.GenerateTrace(rs, workload.TraceConfig{
		Queries: sc.TraceLen, ZipfS: 1.2, Locality: 0.9, Window: 256, Seed: sc.Seed + 6})
	if err != nil {
		return nil, err
	}
	lat := hwsim.DefaultTierLatency()
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	wantA := make([]uint64, len(trace))
	wantM := make([]bool, len(trace))
	for i, k := range trace {
		wantA[i], wantM[i] = oracle.Lookup(k)
	}

	// pass replays the trace once, charging each query through the analytic
	// tier latency model and checking it against the oracle.
	cycles := make([]uint64, len(trace))
	pass := func() (p99 uint64, coldPct float64, mism int) {
		cold := 0
		for i, k := range trace {
			tr := eng.LookupMem(k, cachesim.Null{})
			if tr.Action != wantA[i] || tr.Matched != wantM[i] {
				mism++
			}
			if tr.ColdRead {
				cold++
			}
			cycles[i] = lat.QueryCycles(tr.SRAMProbes, tr.BucketRead, tr.ColdRead)
		}
		slices.Sort(cycles)
		return cycles[len(cycles)*99/100], 100 * float64(cold) / float64(len(trace)), mism
	}
	mib := func(b int) float64 { return float64(b) / (1 << 20) }
	uniformBytes := ts.Stats().FastBytes // all-fast at build time = the uniform footprint

	var out []TieredCell

	// All-hot baseline.
	p99Hot, coldPct, mism := pass()
	st := ts.Stats()
	out = append(out, TieredCell{
		Config: "all-hot", Rules: rs.Len(), FastMiB: mib(st.FastBytes),
		FastSavingX: 1, ColdPct: coldPct, P99Cycles: p99Hot, HeadroomX: 1,
		Mismatches: mism,
	})

	// Deterministic tiered regime: demote everything, warm the burst
	// counters with one full oracle-checked pass, promote the working set.
	ts.DemoteAll()
	_, warmCold, warmMism := pass()
	if warmCold == 0 {
		return nil, fmt.Errorf("tiered: warm-up pass on an all-cold store saw no cold fetches")
	}
	promoted, _ := ts.Rebalance(nil)
	p99, coldPct, mism2 := pass()
	st = ts.Stats()
	out = append(out, TieredCell{
		Config: "tiered", Rules: rs.Len(), FastMiB: mib(st.FastBytes),
		FastSavingX: float64(uniformBytes) / float64(st.FastBytes),
		ColdPct:     coldPct, P99Cycles: p99,
		HeadroomX:  float64(p99Hot) / float64(p99),
		Promotions: promoted, Mismatches: warmMism + mism2,
	})

	// Sketch-driven regime: a few replay+rebalance rounds let the decaying
	// sketch and the burst counters converge on the working set.
	prom, dem, roundMism := 0, 0, 0
	for round := 0; round < 3; round++ {
		_, _, m := pass()
		roundMism += m
		p, d := eng.RebalanceTier()
		prom, dem = prom+p, dem+d
	}
	p99, coldPct, mism3 := pass()
	mism3 += roundMism
	st = ts.Stats()
	out = append(out, TieredCell{
		Config: "tiered sketch", Rules: rs.Len(), FastMiB: mib(st.FastBytes),
		FastSavingX: float64(uniformBytes) / float64(st.FastBytes),
		ColdPct:     coldPct, P99Cycles: p99,
		HeadroomX:  float64(p99Hot) / float64(p99),
		Promotions: prom, Demotions: dem, Mismatches: mism3,
	})

	storm, err := tieredStormRow(sc)
	if err != nil {
		return nil, err
	}
	return append(out, storm), nil
}

// tieredStormRow extends the update-storm matrix (E24/E25) to the tiered
// configuration: a tiered sharded updatable engine under 100% retrain
// failure, with every bucket demoted and rebalance passes migrating between
// check passes. Placement churn is quick-sized deliberately — the property
// is scale-independent correctness, not footprint.
func tieredStormRow(sc Scale) (TieredCell, error) {
	n := min(sc.Rules["ripe"], QuickScale().Rules["ripe"])
	traceLen := min(sc.TraceLen, QuickScale().TraceLen)
	cell := TieredCell{Config: "tiered +storm", Rules: n, FastSavingX: 1, HeadroomX: 1}
	rs, err := workload.Generate(workload.RIPE(), n, sc.Seed)
	if err != nil {
		return cell, err
	}
	trace, err := workload.GenerateTrace(rs, workload.TraceConfig{
		Queries: traceLen, ZipfS: 1.2, Locality: 0.9, Window: 256, Seed: sc.Seed + 7})
	if err != nil {
		return cell, err
	}
	in := fault.NewInjector(uint64(sc.Seed) | 1)
	cfg := sc.engineConfig()
	cfg.Fault = in.Hook()
	cfg.Tier = tier.Config{Enabled: true}
	sh, err := shard.BuildUpdatable(rs, cfg, 4, 0)
	if err != nil {
		return cell, err
	}
	sh.SetCommitBackoff(core.Backoff{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond})

	// Fresh full-width rules stuck in the delta overlay for the whole storm.
	in.FailProb(fault.SiteRetrain, 1)
	merged := append([]lpm.Rule(nil), rs.Rules...)
	set := rs
	probe := uint64(0x9e3779b97f4a7c15)
	for added := 0; added < 64; probe = probe*2862933555777941757 + 3037000493 {
		p := keys.FromUint64(probe).And(keys.MaxValue(rs.Width))
		if set.Find(p, rs.Width) != lpm.NoMatch {
			continue
		}
		r := lpm.Rule{Prefix: p, Len: rs.Width, Action: uint64(1<<21) + uint64(added)}
		if err := sh.Insert(r); err != nil {
			return cell, fmt.Errorf("insert during storm: %w", err)
		}
		merged = append(merged, r)
		added++
	}
	set, err = lpm.NewRuleSet(rs.Width, merged)
	if err != nil {
		return cell, err
	}
	oracle := lpm.NewTrieMatcher(set)
	wantA := make([]uint64, len(trace))
	wantM := make([]bool, len(trace))
	for i, k := range trace {
		wantA[i], wantM[i] = oracle.Lookup(k)
	}

	check := func() {
		const batch = 256
		for lo := 0; lo < len(trace); lo += batch {
			hi := min(lo+batch, len(trace))
			for i, r := range sh.LookupBatch(trace[lo:hi]) {
				if r.Action != wantA[lo+i] || r.Matched != wantM[lo+i] {
					cell.Mismatches++
				}
			}
		}
	}
	// Mid-storm: all-cold, then burst-promoted, then all-cold again —
	// answers must match the merged oracle in every placement state.
	for i := 0; i < sh.Shards(); i++ {
		sh.Engine(i).TierStore().DemoteAll()
	}
	check()
	p, d := sh.RebalanceTiers()
	cell.Promotions += p
	cell.Demotions += d
	check()
	for i := 0; i < sh.Shards(); i++ {
		sh.Engine(i).TierStore().DemoteAll()
	}
	check()

	// Recovery: faults off, drain, re-check over rebuilt (all-fast) engines.
	in.Clear(fault.SiteRetrain)
	if err := sh.CommitAll(); err != nil {
		return cell, fmt.Errorf("recovery commit: %w", err)
	}
	if pending := sh.PendingInserts(); pending != 0 {
		return cell, fmt.Errorf("recovery left %d rules pending", pending)
	}
	p, d = sh.RebalanceTiers()
	cell.Promotions += p
	cell.Demotions += d
	check()
	for i := 0; i < sh.Shards(); i++ {
		cell.FastMiB += float64(sh.Engine(i).TierStore().Stats().FastBytes) / (1 << 20)
	}
	if err := sh.Close(); err != nil {
		return cell, fmt.Errorf("close after storm: %w", err)
	}
	return cell, nil
}

// TieredTable renders E28.
func TieredTable(cells []TieredCell) *Table {
	t := &Table{
		Title:  "Tiered-memory bucket store: hot/cold placement footprint and analytic p99 vs the uniform all-fast baseline (ripe workload, zipf1.2/loc0.9)",
		Header: []string{"config", "rules", "fast MiB", "fast saving x", "cold %", "p99 cycles", "p99 headroom x", "promotions", "demotions", "oracle mismatches"},
		Notes: []string{
			"DESIGN.md §16: cold buckets live in a simulated slow tier (10x fetch latency); placement is burst-promoted and sketch-demoted",
			"fast saving x = uniform fast-tier bytes / row's fast-tier bytes; p99 headroom x = all-hot p99 cycles / row's p99 cycles (both higher = better)",
			"'tiered' is the deterministic burst-only regime (warm-up pass, then one rebalance): the measured pass must run 0% cold at full headroom",
			"'tiered sketch' hands placement to the decaying hotness sketch (1:64 sampling), so its ratios are informative, not pinned",
			"'+storm' re-runs the fault matrix on a tiered sharded engine (quick-sized): every retrain failing, placement churning, 0 mismatches required",
			"p99 from hwsim.TierLatency, an analytic cycle model — deterministic across machines, so TestTiered pins the other rows' ratios exactly",
		},
	}
	for _, c := range cells {
		p99 := fu(c.P99Cycles)
		if c.P99Cycles == 0 { // the storm row checks correctness, not latency
			p99 = "-"
		}
		t.Rows = append(t.Rows, []string{
			c.Config, fi(c.Rules), f1(c.FastMiB), f2(c.FastSavingX), f1(c.ColdPct),
			p99, f2(c.HeadroomX), fi(c.Promotions), fi(c.Demotions), fi(c.Mismatches),
		})
	}
	return t
}
