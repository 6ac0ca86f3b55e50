package planetest

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

// FuzzStackVsOracle is THE differential fuzz target for the lookup pipeline:
// for arbitrary rule-sets, shard counts, key streams and update interleavings
// — {Insert, Insert retrained in, Insert whose retrain fails, Delete,
// ModifyAction, Commit}, with forced compactions and rebuild failures injected
// through internal/fault — the updatable engine of 1, 2, 4 or 8 shards must
// answer exactly what a trie oracle over the logical rule-set answers, batch
// and single-key, after every step (the CLAUDE.md correctness invariant).
//
// The input splits in half: the first half derives the base rule-set, the
// second half drives update ops (7 bytes per op, ≤12 ops, op byte mod 6).
// `sel` is two fields: bit 0 bucketizes the engines (clear: SRAM-only, where
// every insert that spills is retrained in), bits 1–2 pick the shard count 1,
// 2, 4 or 8 — one shard being the degenerate case the serving layer runs by
// default.
//
// It subsumes the retired per-combination targets — FuzzEngineVsOracle,
// FuzzShardedVsOracle, FuzzShardedUpdateVsOracle and FuzzCachedVsOracle —
// whose seed corpora are carried forward below.
func FuzzStackVsOracle(f *testing.F) {
	// Union of the retired targets' seeds, re-encoded for sel's shard-count
	// field.
	f.Add([]byte{0, 0, 0, 0, 7, 1, 255, 255, 0, 0, 3, 2}, uint64(1), uint8(0|1<<1))
	f.Add([]byte{0, 0, 0, 0, 7, 1, 255, 255, 0, 0, 3, 2}, uint64(1), uint8(1|2<<1))
	f.Add([]byte{1, 2, 3, 4, 31, 9, 128, 0, 0, 0, 0, 5, 64, 0, 0, 0, 1, 6}, uint64(42), uint8(1|2<<1))
	f.Add([]byte{1, 2, 3, 4, 31, 9, 128, 0, 0, 0, 0, 5, 64, 0, 0, 0, 1, 6}, uint64(42), uint8(0|3<<1))
	f.Add([]byte{0, 0, 0, 0, 7, 1, 255, 255, 0, 0, 3, 2, 0, 1, 2, 3, 4, 5, 6, 3, 0, 0, 0, 0, 0, 0, 0}, uint64(1), uint8(1|2<<1))
	f.Add([]byte{1, 2, 3, 4, 31, 9, 128, 0, 0, 0, 0, 5, 3, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0}, uint64(42), uint8(0|3<<1))
	f.Add([]byte{}, uint64(0), uint8(0|1<<1))
	// One shard: four base rules (28 bytes with padding), then insert →
	// failed rebuild → commit → delete of a committed rule.
	oneShard := []byte{
		10, 0, 0, 0, 7, 1, 10, 1, 0, 0, 15, 2, 192, 168, 0, 0, 15, 3, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0,
		0, 172, 16, 0, 0, 11, 9, 3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0,
	}
	f.Add(oneShard, uint64(7), uint8(1))
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
	// In-place inserts around rebuilt ones: a /24 whose Compact is forced is
	// retrained in, a /1 whose forced retrain fails answers from where it
	// landed, and a /32 inside the /24 and a /16 around it land in the
	// rebuilt engine; a modify and a delete reach one of each.
	rebuilt := append(bytes.Repeat([]byte{10, 0, 0, 0, 7, 1}, 7),
		5, 10, 1, 2, 0, 23, 50,
		3, 0, 0, 0, 0, 0, 0,
		0, 10, 1, 2, 3, 31, 51,
		0, 10, 1, 0, 0, 15, 52,
		2, 1, 90, 0, 0, 0, 0,
		1, 2, 0, 0, 0, 0, 0)
	f.Add(rebuilt, uint64(11), uint8(1))
	f.Add(rebuilt, uint64(11), uint8(1|1<<1))
	f.Fuzz(func(t *testing.T, data []byte, keySeed uint64, sel uint8) {
		const width = 32
		split := len(data) / 2
		base := DeriveRules(width, data[:split])
		rs, err := lpm.NewRuleSet(width, base)
		if err != nil {
			t.Fatalf("derived rule-set invalid: %v", err)
		}

		// Bucketization toggled by sel's low bit; fault-injected forced
		// compactions and rebuild failures.
		nShards := 1 << (sel >> 1 & 3)
		in := fault.NewInjector(keySeed | 1)
		cfg := core.Config{Model: FuzzModel(), Fault: in.Hook()}
		if sel&1 == 1 {
			cfg.BucketSize = 8
		}
		u, err := shard.BuildUpdatable(rs, cfg, nShards, 0)
		if err != nil {
			t.Fatalf("BuildUpdatable(%d shards, %d rules): %v", nShards, rs.Len(), err)
		}
		fx := &Fixture{u}

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
		// check holds the engine to an oracle over the live rules on their
		// boundaries and n random keys.
		check := func(stage string, n int) {
			t.Helper()
			set, err := lpm.NewRuleSet(width, append([]lpm.Rule(nil), live...))
			if err != nil {
				t.Fatalf("%s: model rule-set invalid: %v", stage, err)
			}
			if err := fx.Check(lpm.NewTrieMatcher(set), Corpus(width, live, n, rng)); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
		}
		check("fresh", 64)

		// Update ops; after each op the engine is re-checked against a fresh
		// oracle.
		rebuilds := func() uint64 { return counter(t, "neurolpm_shard_rebuild_ms_count") }
		failures := func() uint64 { return counter(t, "neurolpm_shard_commit_errors_total") }
		ops := data[split:]
		for i, n := 0, 0; i+7 <= len(ops) && n < 12; i, n = i+7, n+1 {
			switch op := ops[i] % 6; op {
			case 0, 3, 5: // insert a fresh rule: Compact's choice (0), forced to retrain (5), or forced with the first retrain failing (3)
				rr := DeriveRules(width, ops[i+1:i+7])
				if len(rr) == 0 || installed[ruleKey{rr[0].Prefix, rr[0].Len}] {
					continue
				}
				r := rr[0]
				if op != 0 {
					in.FailProb(fault.SiteCompact, 1)
				}
				if op == 3 {
					in.FailNext(fault.SiteRetrain, 1)
				}
				beforeR, beforeF := rebuilds(), failures()
				err := u.Insert(r)
				in.Clear(fault.SiteCompact)
				in.Clear(fault.SiteRetrain)
				// The insert lands whatever its retrain does: a failed one
				// leaves the rule answered from where it landed.
				if err != nil {
					t.Fatalf("insert %v: %v", r, err)
				}
				// A forced Compact retrains every shard the rule covers, the
				// first of them failing under op 3.
				covered := uint64(u.ShardOf(r.High(width)) - u.ShardOf(r.Low(width)) + 1)
				gotR, gotF, wantF := rebuilds()-beforeR, failures()-beforeF, uint64(0)
				if op == 3 {
					wantF = 1
				}
				if op != 0 && (gotR != covered || gotF != wantF) {
					t.Fatalf("insert %v over %d shards (op %d): %d rebuilds, %d failed", r, covered, op, gotR, gotF)
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
			case 4: // commit: spill records fold back
				s := int(ops[i+1]) % u.Shards()
				if err := u.Commit(s); err != nil {
					t.Fatalf("commit shard %d: %v", s, err)
				}
				if got := u.Engine(s).SpilledBuckets(); got != 0 {
					t.Fatalf("shard %d after commit: %d spilled buckets", s, got)
				}
			}
			check(fmt.Sprintf("after op %d", i/7), 16)
		}

		// Every update landed in the engines as it was acknowledged: the
		// engine agrees with the oracle, and again once every shard has
		// re-densified.
		check("after the ops", 16)
		for s := 0; s < u.Shards(); s++ {
			if err := u.Commit(s); err != nil {
				t.Fatalf("final commit of shard %d: %v", s, err)
			}
		}
		check("after re-densify", 16)
	})
}

// counter renders the default registry as /metrics does and returns the named
// counter.
func counter(t testing.TB, name string) uint64 {
	t.Helper()
	var b strings.Builder
	telemetry.Default.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("/metrics lists no %s", name)
	return 0
}
