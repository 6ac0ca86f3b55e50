// Update-plane serving tests (DESIGN.md §11): a wire update's acknowledgement
// means the rule is in the engine, a failed rebuild fails no update, and
// /healthz is liveness alone.
package serve

import (
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/wire"
)

// buildFaultyShardedServer is buildShardedServer with a retrain forced after
// every write (fault.SiteCompact), and the rebuilds routed through a fault
// injector.
func buildFaultyShardedServer(t *testing.T) (*Server, *lpm.RuleSet, *fault.Injector) {
	t.Helper()
	rs := buildTestRuleSet(t)
	in := fault.NewInjector(7)
	in.FailProb(fault.SiteCompact, 1)
	cfg := quickConfig(true)
	cfg.Fault = in.Hook()
	sh, err := shard.BuildUpdatable(rs, cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewSharded(sh, telemetry.NewRegistry()), rs, in
}

// freeKey32 returns a 32-bit key in the given shard (top 2 bits of 4
// shards) with no /32 rule installed, so it can be inserted as a fresh rule.
func freeKey32(t *testing.T, rs *lpm.RuleSet, shardIdx int) keys.Value {
	t.Helper()
	base := uint64(shardIdx) << 30
	for p := uint64(0); p < 1<<30; p++ {
		k := keys.FromUint64(base | (p*2654435761)%(1<<30))
		if rs.Find(k, 32) == lpm.NoMatch {
			return k
		}
	}
	t.Fatalf("no free /32 in shard %d", shardIdx)
	return keys.Value{}
}

// TestFailedRebuildLeavesServerHealthy: every insert lands in place before
// the wire acknowledges it, and the retrain that follows cannot take that
// back. While the retrain fails the insert is still acknowledged — there is
// no queue to wait on — and the rule answers on another connection, and
// /healthz stays 200 "ok" with no per-shard state; once the retrain
// succeeds, the next acknowledged update is in the rebuilt engine, for a
// lookup on another connection too, however long the retrain took.
func TestFailedRebuildLeavesServerHealthy(t *testing.T) {
	srv, rs, in := buildFaultyShardedServer(t)
	addr, _, _ := startWire(t, srv, true)
	c, other := dialWireAt(t, addr), dialWireAt(t, addr)
	k := freeKey32(t, rs, 1)
	s := srv.sh.ShardOf(k)
	before := srv.sh.Engine(s)

	in.FailProb(fault.SiteRetrain, 1)
	if err := c.update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: k, Len: 32, Action: 777}); err != nil {
		t.Fatalf("insert with a failing retrain: %v", err)
	}
	wantAnswer(t, other, k, 777, true)
	if srv.sh.Engine(s) != before {
		t.Fatal("a failed retrain swapped the shard's engine")
	}
	var hz map[string]any
	h := srv.Handler()
	if rec := getJSON(t, h, "/healthz", &hz); rec.Code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz after a failed rebuild: %d %v", rec.Code, hz["status"])
	}
	// Liveness and the engine summary, and no update-plane state beside them.
	var fields []string
	for f := range hz {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	if got := strings.Join(fields, " "); got != "dram_bytes ranges shards sram_bytes status width" {
		t.Errorf("healthz fields %q", got)
	}

	in.Clear(fault.SiteRetrain)
	in.SetLatency(fault.SiteRetrain, 20*time.Millisecond)
	if err := c.update(wire.RuleUpdate{Op: wire.UpdateModify, Prefix: k, Len: 32, Action: 778}); err != nil {
		t.Fatalf("modify once the retrain succeeds: %v", err)
	}
	if srv.sh.Engine(s) == before {
		t.Fatal("the write after the fault swapped in no rebuilt engine")
	}
	wantAnswer(t, other, k, 778, true)
	wantAnswer(t, c, k, 778, true)
}

// TestUpdateEndpointLifecycle drives insert → modify → delete through wire
// update frames and checks each step with a wire lookup.
func TestUpdateEndpointLifecycle(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	c := dialWire(t, srv)
	k := freeKey32(t, rs, 2)
	oracle := lpm.NewTrieMatcher(rs)
	want, wantOK := oracle.Lookup(k)
	wantAnswer(t, c, k, want, wantOK)

	steps := []struct {
		u       wire.RuleUpdate
		action  uint64
		matched bool
	}{
		{wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: k, Len: 32, Action: 101}, 101, true},
		{wire.RuleUpdate{Op: wire.UpdateModify, Prefix: k, Len: 32, Action: 202}, 202, true},
		// After deleting the /32 the answer is the trie oracle's again.
		{wire.RuleUpdate{Op: wire.UpdateDelete, Prefix: k, Len: 32}, want, wantOK},
	}
	for _, st := range steps {
		if err := c.update(st.u); err != nil {
			t.Fatalf("update op %d: %v", st.u.Op, err)
		}
		wantAnswer(t, c, k, st.action, st.matched)
	}
}

// TestUpdateEndpointRejectsBadInput is the table-driven bad-input sweep for
// update frames: a payload that fails decoding is malformed, a well-formed
// update the engine cannot hold is a bad request, and after every case the
// connection still answers a ping.
func TestUpdateEndpointRejectsBadInput(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	c := dialWire(t, srv)
	// payload is a well-formed update payload with uop, length and prefix.
	payload := func(uop, length uint8, prefix keys.Value) []byte {
		f := wire.AppendUpdate(nil, 0, wire.RuleUpdate{Op: uop, Prefix: prefix, Len: int(length), Action: 1})
		return f[16:]
	}
	good := payload(wire.UpdateInsert, 32, keys.FromUint64(1))
	cases := []struct {
		name    string
		op      wire.Op
		payload []byte
		code    uint8
	}{
		{"get method", wire.OpLookup, good, wire.ErrMalformed},
		{"empty body", wire.OpUpdate, nil, wire.ErrMalformed},
		{"truncated payload", wire.OpUpdate, good[:25], wire.ErrMalformed},
		{"trailing data", wire.OpUpdate, append(good[:26:26], 0), wire.ErrMalformed},
		{"unknown op", wire.OpUpdate, payload(3, 32, keys.FromUint64(1)), wire.ErrMalformed},
		{"length over 128", wire.OpUpdate, payload(wire.UpdateInsert, 129, keys.FromUint64(1)), wire.ErrMalformed},
		{"bad prefix", wire.OpUpdate, payload(wire.UpdateInsert, 32, keys.FromUint64(1<<40)), wire.ErrBadRequest},
		{"bad length", wire.OpUpdate, payload(wire.UpdateInsert, 99, keys.FromUint64(1)), wire.ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := c.id()
			wantRejected(t, c, id, reframe(appendPing(nil, id), tc.op, tc.payload), tc.code)
		})
	}
}

// TestUpdateThenLookupOneShard: the degenerate topology has the whole update
// plane — an insert is visible to a lookup from the engine, stays visible
// across the commit that re-densifies it, and a delete of the committed rule
// uncovers the old answer.
func TestUpdateThenLookupOneShard(t *testing.T) {
	sh := buildOneShard(t, true)
	c := dialWire(t, NewSharded(sh, telemetry.NewRegistry()))
	k := freeKey32(t, buildTestRuleSet(t), 0)
	before, err := c.lookup(k)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: k, Len: 32, Action: 777}); err != nil {
		t.Fatalf("insert on one shard: %v", err)
	}
	wantAnswer(t, c, k, 777, true)
	if err := sh.Commit(0); err != nil {
		t.Fatal(err)
	}
	if n := sh.Engine(0).SpilledBuckets(); n != 0 {
		t.Fatalf("spilled buckets after commit = %d", n)
	}
	wantAnswer(t, c, k, 777, true)
	if err := c.update(wire.RuleUpdate{Op: wire.UpdateDelete, Prefix: k, Len: 32}); err != nil {
		t.Fatalf("delete on one shard: %v", err)
	}
	wantAnswer(t, c, k, before.Action, before.Matched)
}
