package planetest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/tier"
)

// FuzzStackVsOracle is THE differential fuzz target for the lookup-plane
// matrix: for arbitrary rule-sets, shard counts, key streams and update
// interleavings — {Insert absorbed, Insert buffered, Delete, ModifyAction,
// failed Commit, successful Commit}, with commit failures and absorb refusals
// injected through internal/fault — every
// (topology, stack) combo in plane.Combos() must answer exactly what a trie
// oracle over the logical rule-set answers, after every step (the CLAUDE.md
// correctness invariant).
//
// The input splits in half: the first half derives the base rule-set, the
// second half drives update ops on the sharded side (7 bytes per op, ≤12
// ops, op byte mod 6) plus a no-retrain tombstone delete on the single engine. `sel` is three
// fields: bit 0 bucketizes the single engine, bit 1 tiers both sides, bits 2–3
// pick the shard count 1, 2, 4 or 8 — one shard being the degenerate case the
// serving layer runs by default.
//
// It subsumes the retired per-combination targets — FuzzEngineVsOracle,
// FuzzShardedVsOracle, FuzzShardedUpdateVsOracle and FuzzCachedVsOracle —
// whose seed corpora are carried forward below.
func FuzzStackVsOracle(f *testing.F) {
	// Union of the retired targets' seeds, re-encoded for sel's shard-count
	// field.
	f.Add([]byte{0, 0, 0, 0, 7, 1, 255, 255, 0, 0, 3, 2}, uint64(1), uint8(0|1<<2))
	f.Add([]byte{0, 0, 0, 0, 7, 1, 255, 255, 0, 0, 3, 2}, uint64(1), uint8(1|2<<2))
	f.Add([]byte{1, 2, 3, 4, 31, 9, 128, 0, 0, 0, 0, 5, 64, 0, 0, 0, 1, 6}, uint64(42), uint8(1|2<<2))
	f.Add([]byte{1, 2, 3, 4, 31, 9, 128, 0, 0, 0, 0, 5, 64, 0, 0, 0, 1, 6}, uint64(42), uint8(0|3<<2))
	f.Add([]byte{0, 0, 0, 0, 7, 1, 255, 255, 0, 0, 3, 2, 0, 1, 2, 3, 4, 5, 6, 3, 0, 0, 0, 0, 0, 0, 0}, uint64(1), uint8(1|2<<2))
	f.Add([]byte{1, 2, 3, 4, 31, 9, 128, 0, 0, 0, 0, 5, 3, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0}, uint64(42), uint8(0|3<<2))
	f.Add([]byte{}, uint64(0), uint8(0|1<<2))
	// Tiered-configuration seeds (sel&2): update storm over cold-start tiers.
	f.Add([]byte{0, 0, 0, 0, 7, 1, 255, 255, 0, 0, 3, 2, 0, 1, 2, 3, 4, 5, 6, 3, 0, 0, 0, 0, 0, 0, 0}, uint64(1), uint8(3|1<<2))
	f.Add([]byte{1, 2, 3, 4, 31, 9, 128, 0, 0, 0, 0, 5, 3, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0}, uint64(42), uint8(3|2<<2))
	// One shard: four base rules (28 bytes with padding), then insert →
	// failed commit → commit → delete of a committed rule.
	oneShard := []byte{
		10, 0, 0, 0, 7, 1, 10, 1, 0, 0, 15, 2, 192, 168, 0, 0, 15, 3, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0,
		0, 172, 16, 0, 0, 11, 9, 3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0,
	}
	f.Add(oneShard, uint64(7), uint8(1))
	f.Add(oneShard, uint64(7), uint8(3))
	// One bucket grown past twice its built capacity, one shard. One base rule
	// (the first half is fourteen copies of it) leaves a single bucket of three
	// ranges: eight /32s are absorbed, two bounds and one fresh spill record
	// each — 19 ranges, where 2K = 16 used to be the end — with three deletes
	// (which re-own in the current record and leave their bounds) and the
	// matrix lookups between them; the commit folds it all into dense records.
	overflow := bytes.Repeat([]byte{10, 0, 0, 0, 7, 1}, 14)
	for i := byte(1); i <= 8; i++ {
		overflow = append(overflow, 0, 10, i, 0, i, 31, i)
		if i%3 == 0 || i == 8 {
			overflow = append(overflow, 1, i/3, 0, 0, 0, 0, 0)
		}
	}
	overflow = append(overflow, 4, 0, 0, 0, 0, 0, 0)
	f.Add(overflow, uint64(9), uint8(1))
	// An insert while a commit is pending: a /24 the engine is made to refuse
	// waits in the buffer, its commit fails, and a /32 inside it and a /16
	// around it are absorbed by the engine under the overlay; a modify and a
	// delete reach one of each, then the commit succeeds.
	pending := append(bytes.Repeat([]byte{10, 0, 0, 0, 7, 1}, 7),
		5, 10, 1, 2, 0, 23, 50,
		3, 0, 0, 0, 0, 0, 0,
		0, 10, 1, 2, 3, 31, 51,
		0, 10, 1, 0, 0, 15, 52,
		2, 1, 90, 0, 0, 0, 0,
		1, 2, 0, 0, 0, 0, 0)
	f.Add(pending, uint64(11), uint8(1))
	f.Add(pending, uint64(11), uint8(1|1<<2))
	f.Fuzz(func(t *testing.T, data []byte, keySeed uint64, sel uint8) {
		const width = 32
		split := len(data) / 2
		base := DeriveRules(width, data[:split])
		rs, err := lpm.NewRuleSet(width, base)
		if err != nil {
			t.Fatalf("derived rule-set invalid: %v", err)
		}

		// sel&2 runs the tiered configuration (DESIGN.md §16): an aggressive
		// placement policy (demote everything the sketch missed, promote on a
		// single cold fetch) so rebalance passes migrate constantly while the
		// matrix checks run.
		tiered := sel&2 == 2
		tcfg := tier.Config{Enabled: true, DemoteBelow: ^uint32(0)}

		// Single topology: bucketization toggled by sel's low bit.
		cfg := core.Config{Model: FuzzModel()}
		if sel&1 == 1 {
			cfg.BucketSize = 8
			if tiered {
				cfg.Tier = tcfg
			}
		}
		eng, err := core.Build(rs, cfg)
		if err != nil {
			t.Fatalf("Build(%d rules): %v", rs.Len(), err)
		}

		// Sharded topology: fault-injected commits, tiny cache tables for
		// maximal eviction pressure on the cached stacks.
		nShards := 1 << (sel >> 2 & 3)
		in := fault.NewInjector(keySeed | 1)
		ucfg := core.Config{BucketSize: 8, Model: FuzzModel(), Fault: in.Hook()}
		if tiered {
			ucfg.Tier = tcfg
		}
		u, err := shard.BuildUpdatable(rs, ucfg, nShards, 0)
		if err != nil {
			t.Fatalf("BuildUpdatable(%d shards, %d rules): %v", nShards, rs.Len(), err)
		}
		u.EnableCache(lcache.MinBytes)
		fx := NewFixture(width, eng, u)
		if tiered {
			// Cold-start: every bucket demoted; traffic from the checks below
			// drives burst promotions via the rebalance calls in the op loop.
			if ts := eng.TierStore(); ts != nil {
				ts.DemoteAll()
			}
			for i := 0; i < u.Shards(); i++ {
				if ts := u.Engine(i).TierStore(); ts != nil {
					ts.DemoteAll()
				}
			}
		}

		type ruleKey struct {
			p keys.Value
			l int
		}
		live := append([]lpm.Rule(nil), base...)
		installed := map[ruleKey]bool{}
		for _, r := range base {
			installed[ruleKey{r.Prefix, r.Len}] = true
		}
		rng := rand.New(rand.NewSource(int64(keySeed)))
		shardedCheck := func(stage string, cs []plane.Combo) {
			t.Helper()
			set, err := lpm.NewRuleSet(width, append([]lpm.Rule(nil), live...))
			if err != nil {
				t.Fatalf("%s: model rule-set invalid: %v", stage, err)
			}
			ks := Corpus(width, live, 16, rng)
			if err := fx.CheckCombos(cs, lpm.NewTrieMatcher(set), ks); err != nil {
				t.Fatalf("%s (%d shards): %v", stage, nShards, err)
			}
		}

		// Fresh: both topologies serve the base rule-set — the full 12-combo
		// matrix checks against one oracle.
		baseOracle := lpm.NewTrieMatcher(rs)
		freshKeys := Corpus(width, base, 64, rng)
		if err := fx.CheckCombos(SingleCombos(), baseOracle, freshKeys); err != nil {
			t.Fatalf("fresh: %v", err)
		}
		if err := fx.CheckCombos(ShardedCombos(), baseOracle, freshKeys); err != nil {
			t.Fatalf("fresh (%d shards): %v", nShards, err)
		}

		// Update ops on the sharded side; after each op one stack (rotating
		// through the matrix) re-checks against a fresh oracle.
		absorbed := telemetry.Default.Counter("neurolpm_insert_absorbed_total", "")
		ops := data[split:]
		for i, n := 0, 0; i+7 <= len(ops) && n < 12; i, n = i+7, n+1 {
			switch op := ops[i] % 6; op {
			case 0, 5: // insert a fresh rule: the engine's choice, or refused and buffered
				rr := DeriveRules(width, ops[i+1:i+7])
				if len(rr) == 0 || installed[ruleKey{rr[0].Prefix, rr[0].Len}] {
					continue
				}
				r := rr[0]
				if op == 5 {
					in.FailProb(fault.SiteAbsorb, 1)
				}
				before := u.PendingInserts() + int(absorbed.Load())
				err := u.Insert(r)
				in.Clear(fault.SiteAbsorb)
				if err != nil {
					if errors.Is(err, core.ErrDeltaFull) {
						continue // backpressure is a legal outcome
					}
					t.Fatalf("insert %v: %v", r, err)
				}
				// Every shard the rule covers took it down exactly one path.
				covered := u.ShardOf(r.High(width)) - u.ShardOf(r.Low(width)) + 1
				if got := u.PendingInserts() + int(absorbed.Load()) - before; got != covered {
					t.Fatalf("insert %v over %d shards: pending + absorbed moved by %d", r, covered, got)
				}
				if op == 5 && u.PendingInserts() == 0 {
					t.Fatalf("insert %v: refused by every engine, yet nothing is pending", r)
				}
				installed[ruleKey{r.Prefix, r.Len}] = true
				live = append(live, r)
			case 1: // delete an installed rule
				if len(live) == 0 {
					continue
				}
				j := int(ops[i+1]) % len(live)
				r := live[j]
				if err := u.Delete(r.Prefix, r.Len); err != nil {
					t.Fatalf("delete %v: %v", r, err)
				}
				delete(installed, ruleKey{r.Prefix, r.Len})
				live = append(live[:j], live[j+1:]...)
			case 2: // modify an installed rule's action
				if len(live) == 0 {
					continue
				}
				j := int(ops[i+1]) % len(live)
				a := uint64(ops[i+2]) + 1
				if err := u.ModifyAction(live[j].Prefix, live[j].Len, a); err != nil {
					t.Fatalf("modify %v: %v", live[j], err)
				}
				live[j].Action = a
			case 3: // failed commit of a dirty shard
				s := int(ops[i+1]) % u.Shards()
				if u.Statuses()[s].Pending == 0 {
					continue
				}
				in.FailNext(fault.SiteRetrain, 1)
				err := u.Commit(s)
				in.Clear(fault.SiteRetrain)
				if !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("injected commit failure lost: %v", err)
				}
				if u.LastCommitErr() == nil {
					t.Fatal("failed commit not observable through LastCommitErr")
				}
			case 4: // successful commit: buffered rules land, spill records fold back
				s := int(ops[i+1]) % u.Shards()
				if err := u.Commit(s); err != nil {
					t.Fatalf("commit shard %d: %v", s, err)
				}
				if st := u.Statuses()[s]; st.Pending != 0 || u.Engine(s).SpilledBuckets() != 0 {
					t.Fatalf("shard %d after commit: %d pending, %d spilled buckets", s, st.Pending, u.Engine(s).SpilledBuckets())
				}
			}
			if tiered {
				// Migrate between op and re-check: promotions/demotions land
				// on live engines (including freshly committed ones) and each
				// migration must invalidate that shard's cached entries.
				u.RebalanceTiers()
				eng.RebalanceTier()
			}
			sc := ShardedCombos()
			rotating := sc[n%len(sc) : n%len(sc)+1]
			shardedCheck(fmt.Sprintf("after op %d", i/7), rotating)
		}

		// Single-engine tombstone delete (the §6.5 no-retrain path): re-check
		// all six single stacks against an oracle over the survivors.
		if len(base) >= 2 {
			doomed := base[int(keySeed)%len(base)]
			if err := eng.Delete(doomed.Prefix, doomed.Len); err != nil {
				t.Fatalf("Delete(%v): %v", doomed, err)
			}
			var rest []lpm.Rule
			for _, r := range base {
				if r.Prefix != doomed.Prefix || r.Len != doomed.Len {
					rest = append(rest, r)
				}
			}
			restSet, err := lpm.NewRuleSet(width, rest)
			if err != nil {
				t.Fatal(err)
			}
			if err := fx.CheckCombos(SingleCombos(), lpm.NewTrieMatcher(restSet), Corpus(width, base, 32, rng)); err != nil {
				t.Fatalf("post-delete: %v", err)
			}
		}

		// Recovery: a final successful commit applies everything exactly once
		// and resolves any lingering failure state; the full sharded matrix
		// must agree with the oracle afterwards.
		if err := u.CommitAll(); err != nil {
			t.Fatalf("final CommitAll: %v", err)
		}
		if got := u.PendingInserts(); got != 0 {
			t.Fatalf("pending after final commit: %d", got)
		}
		shardedCheck("after recovery", ShardedCombos())
		if err := u.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}
