package load

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/serve"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/workload"
)

// smokeFixture is an in-process sharded wire server, plus the
// oracle-verified trace and update stream the driver replays.
type smokeFixture struct {
	wireAddr string
	trace    []keys.Value
	expected []Result
	updates  *workload.UpdateStream
}

func buildSmokeFixture(t *testing.T) *smokeFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	seen := map[string]bool{}
	var rules []lpm.Rule
	for len(rules) < 300 {
		length := 1 + rng.Intn(32)
		prefix := keys.FromUint64(rng.Uint64() & (1<<32 - 1))
		prefix = prefix.Shr(uint(32 - length)).Shl(uint(32 - length))
		id := fmt.Sprintf("%v/%d", prefix, length)
		if seen[id] {
			continue
		}
		seen[id] = true
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: uint64(len(rules) + 1)})
	}
	rs, err := lpm.NewRuleSet(32, rules)
	if err != nil {
		t.Fatal(err)
	}

	mc := rqrmi.DefaultConfig()
	mc.StageWidths = []int{1, 2, 8}
	sh, err := shard.BuildUpdatable(rs, core.Config{Model: mc, BucketSize: 8}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewSharded(sh, telemetry.NewRegistry())

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := serve.NewWireServer(srv, l)
	go ws.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ws.Shutdown(ctx); err != nil {
			t.Errorf("wire shutdown: %v", err)
		}
	})

	// Update stream first, so trace verification can exempt its flap sites.
	stream, err := workload.GenerateUpdates(rs, workload.UpdateConfig{
		Count: 400, Rate: 300, Sites: 16, ActionBase: 1 << 25, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}

	oracle := lpm.NewTrieMatcher(rs)
	trace := make([]keys.Value, 4096)
	expected := make([]Result, len(trace))
	for i := range trace {
		trace[i] = keys.FromUint64(rng.Uint64() & (1<<32 - 1))
		a, ok := oracle.Lookup(trace[i])
		expected[i] = Result{Action: a, Matched: ok}
	}

	return &smokeFixture{
		wireAddr: l.Addr().String(),
		trace:    trace,
		expected: expected,
		updates:  stream,
	}
}

// checkReport holds a run to counts, not to the clock: every request the
// driver scheduled was sent and answered, without an error or a mismatch, and
// an open loop (rate > 0) scheduled what its rate and window call for — the
// Poisson schedule is seeded, so Sent repeats exactly. Achieved against
// offered is a wall-clock ratio that a loaded box fails for reasons that are
// not the driver's; the benchmark reports it as loadgen.achieved_share.
func checkReport(t *testing.T, rep *Report, rate float64) {
	t.Helper()
	t.Logf("%v", rep)
	if rep.Done == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d oracle mismatches", rep.Mismatches)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors", rep.Errors)
	}
	if rep.Done != rep.Sent {
		t.Fatalf("%d requests sent, %d answered", rep.Sent, rep.Done)
	}
	if rep.Offered < 0.98*rate {
		t.Fatalf("scheduled %d requests, %.0f/s, below 98%% of the %.0f/s asked for", rep.Sent, rep.Offered, rate)
	}
}

// TestLoadSmoke is the `make loadtest` CI smoke: a 2s open-loop wire run with
// a live update stream against an in-process WireServer must send and get an
// answer to every request of its schedule, with zero errors and zero oracle
// mismatches.
func TestLoadSmoke(t *testing.T) {
	fx := buildSmokeFixture(t)
	rate := 2000.0
	if raceEnabled {
		rate = 600
	}
	rep, err := Run(Config{
		Addr:       fx.wireAddr,
		Conns:      4,
		Rate:       rate,
		Duration:   2 * time.Second,
		Trace:      fx.trace,
		Expected:   fx.expected,
		SkipVerify: fx.updates.SiteSet(),
		Updates:    fx.updates.Updates,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, rate)
	if rep.Updates == 0 {
		t.Fatal("update stream sent nothing")
	}
	if rep.UpdateErrs != 0 {
		t.Fatalf("%d update errors", rep.UpdateErrs)
	}
}

// TestLoadWireClosedLoop covers the synchronous wire arm.
func TestLoadWireClosedLoop(t *testing.T) {
	fx := buildSmokeFixture(t)
	rep, err := Run(Config{
		Addr:     fx.wireAddr,
		Conns:    2,
		Duration: 300 * time.Millisecond,
		Trace:    fx.trace,
		Expected: fx.expected,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 0)
}
