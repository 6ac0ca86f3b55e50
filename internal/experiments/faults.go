package experiments

import (
	"fmt"
	"sort"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/workload"
)

// FaultsCell is one phase of the retrain-failure storm experiment (E24,
// DESIGN.md §11): lookup latency quantiles while the background committer
// is healthy, while every retrain is failing (readers must ride the last
// good engines + delta overlay), and after recovery.
type FaultsCell struct {
	Phase      string
	P50ns      float64
	P99ns      float64
	MLookupsPS float64
	Failures   uint64 // commit failures recorded during the phase
	Pending    int    // delta-buffer rules at the end of the phase
	Mismatches int    // disagreements with the merged-rule-set oracle (must be 0)
}

// faultsShards and faultsInsertsPerPhase size the storm: enough shards that
// a failing one is a minority, enough fresh rules that the delta overlay is
// genuinely exercised on the query path.
const (
	faultsShards          = 8
	faultsInsertsPerPhase = 64
)

// FaultStorm builds a sharded updatable engine on the ripe workload with a
// fault injector on the retrain site, then measures lookup behaviour in
// three phases:
//
//	baseline — no faults; inserted rules are committed by the background
//	           committer as usual.
//	storm    — every retrain fails (with added latency); commits keep
//	           retrying on the backoff schedule while lookups continue.
//	recovery — faults cleared; an explicit CommitAll drains every shard and
//	           the engine must match the merged oracle with nothing pending.
//
// Every phase verifies the full trace against a trie oracle over the merged
// rule-set; any mismatch is a correctness failure of the degraded mode.
func FaultStorm(sc Scale) ([]FaultsCell, error) {
	rs, err := workload.Generate(workload.Profiles()["ripe"], sc.Rules["ripe"], sc.Seed)
	if err != nil {
		return nil, err
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.TraceLen, sc.Seed+2))
	if err != nil {
		return nil, err
	}
	in := fault.NewInjector(uint64(sc.Seed) | 1)
	// The storm is about the overflow path — delta overlay, retrain, backoff
	// — so every insert is refused by the engine and takes the buffer; left
	// alone the engine would absorb these full-width rules and never commit.
	in.FailProb(fault.SiteAbsorb, 1)
	cfg := sc.engineConfig()
	cfg.Fault = in.Hook()
	sh, err := shard.BuildUpdatable(rs, cfg, faultsShards, 0)
	if err != nil {
		return nil, err
	}
	sh.SetCommitBackoff(core.Backoff{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond})
	sh.StartAutoCommit(10*time.Millisecond, faultsInsertsPerPhase/4)

	merged := append([]lpm.Rule(nil), rs.Rules...)
	// The churn comes from the shared open-loop update generator
	// (workload.GenerateUpdates, also replayed by cmd/lpmload): insert-only,
	// one fresh full-width site per rule, so each phase's inserts fold
	// directly into the merged oracle.
	stream, err := workload.GenerateUpdates(rs, workload.UpdateConfig{
		Count:      3 * faultsInsertsPerPhase,
		InsertOnly: true,
		ActionBase: 1 << 20,
		Seed:       sc.Seed | 1,
	})
	if err != nil {
		return nil, err
	}
	next := 0
	// insertFresh queues the stream's next n rules (visible immediately via
	// the delta overlay) and merges them into the logical rule-set.
	insertFresh := func(n int) error {
		for ; n > 0; n-- {
			r := stream.Updates[next].Rule
			next++
			if err := sh.Insert(r); err != nil {
				return fmt.Errorf("insert during storm: %w", err)
			}
			merged = append(merged, r)
		}
		return nil
	}

	failuresSoFar := uint64(0)
	runPhase := func(name string) (FaultsCell, error) {
		cell := FaultsCell{Phase: name}
		if err := insertFresh(faultsInsertsPerPhase); err != nil {
			return cell, err
		}
		// Latency quantiles: one timed Lookup per sampled key, while the
		// background committer does whatever the phase's faults dictate.
		sample := trace[:min(len(trace), 50000)]
		lat := make([]int64, len(sample))
		start := time.Now()
		for i, k := range sample {
			t0 := time.Now()
			sh.Lookup(k)
			lat[i] = time.Since(t0).Nanoseconds()
		}
		elapsed := time.Since(start)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		cell.P50ns = float64(lat[len(lat)/2])
		cell.P99ns = float64(lat[len(lat)*99/100])
		cell.MLookupsPS = float64(len(sample)) / elapsed.Seconds() / 1e6

		// Correctness under the phase's fault regime: the full trace plus
		// every inserted rule's own prefix, against the merged oracle.
		set, err := lpm.NewRuleSet(rs.Width, merged)
		if err != nil {
			return cell, err
		}
		oracle := lpm.NewTrieMatcher(set)
		check := append([]keys.Value(nil), trace...)
		for _, r := range merged[rs.Len():] {
			check = append(check, r.Prefix)
		}
		for _, k := range check {
			got, ok := sh.Lookup(k)
			want, wantOK := oracle.Lookup(k)
			if ok != wantOK || (wantOK && got != want) {
				cell.Mismatches++
			}
		}
		total := uint64(0)
		for _, st := range sh.Statuses() {
			total += st.Failures
		}
		cell.Failures, failuresSoFar = total-failuresSoFar, total
		cell.Pending = sh.PendingInserts()
		return cell, nil
	}

	var out []FaultsCell
	// Baseline: healthy committer.
	cell, err := runPhase("baseline")
	if err != nil {
		return nil, err
	}
	out = append(out, cell)

	// Storm: every retrain fails, and takes extra wall time doing so.
	in.FailProb(fault.SiteRetrain, 1)
	in.SetLatency(fault.SiteRetrain, 2*time.Millisecond)
	cell, err = runPhase("storm")
	if err != nil {
		return nil, err
	}
	out = append(out, cell)

	// Recovery: clear the faults and drain explicitly; queued updates must
	// land exactly once and nothing may stay pending.
	in.Clear(fault.SiteRetrain)
	if err := sh.CommitAll(); err != nil {
		return nil, fmt.Errorf("recovery commit: %w", err)
	}
	cell, err = runPhase("recovery")
	if err != nil {
		return nil, err
	}
	if err := sh.CommitAll(); err != nil {
		return nil, fmt.Errorf("final drain: %w", err)
	}
	cell.Pending = sh.PendingInserts()
	out = append(out, cell)

	if err := sh.Close(); err != nil {
		return nil, fmt.Errorf("close after recovery: %w", err)
	}
	return out, nil
}

// FaultsTable renders E24.
func FaultsTable(cells []FaultsCell) *Table {
	t := &Table{
		Title:  "Retrain-failure storm: lookup latency and correctness per phase (ripe workload)",
		Header: []string{"phase", "p50 ns", "p99 ns", "Mlookups/s", "commit failures", "pending", "oracle mismatches"},
		Notes: []string{
			"§6.5 + DESIGN.md §11: readers answer from the last good engine + delta overlay while commits fail",
			"every insert takes the overflow path (fault site absorb armed): an absorbed insert needs no commit and has no storm to weather",
			"mismatches must be 0 in every phase — degraded mode never serves a wrong or torn answer",
			"recovery drains via explicit CommitAll: pending must be 0 and each queued rule applied exactly once",
		},
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			c.Phase, f1(c.P50ns), f1(c.P99ns), f2(c.MLookupsPS),
			fmt.Sprintf("%d", c.Failures), fi(c.Pending), fi(c.Mismatches),
		})
	}
	return t
}
