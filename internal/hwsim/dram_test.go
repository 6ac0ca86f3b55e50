package hwsim

import (
	"testing"

	"neurolpm/internal/bucket"
	"neurolpm/internal/keys"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/workload"
)

func buildBucketized(t testing.TB, rules int, seed int64) (*rqrmi.Model, *bucket.Directory, []keys.Value) {
	t.Helper()
	rs, err := workload.Generate(workload.RIPE(), rules, seed)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ranges.Convert(rs)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := bucket.Build(arr, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rqrmi.DefaultConfig()
	cfg.StageWidths = []int{1, 2, 16}
	model, _, err := rqrmi.Train(dir, 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(3000, seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return model, dir, trace
}

func TestSimulateDRAMCompletes(t *testing.T) {
	model, dir, trace := buildBucketized(t, 1500, 1)
	res, err := SimulateDRAM(model, dir, trace, DefaultConfig(), DefaultDRAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAMFetches != uint64(len(trace)) {
		t.Fatalf("fetches %d, want exactly one per query (§7)", res.DRAMFetches)
	}
	for i, l := range res.Latencies {
		if int(l) < 22+30+2 {
			t.Fatalf("query %d latency %d below pipeline floor", i, l)
		}
	}
}

func TestSimulateDRAMLatencyDominatesSRAMOnly(t *testing.T) {
	model, dir, trace := buildBucketized(t, 1500, 2)
	cfg := DefaultConfig()
	dram := DefaultDRAMConfig()
	sram, err := Simulate(model, dir, trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SimulateDRAM(model, dir, trace, cfg, dram)
	if err != nil {
		t.Fatal(err)
	}
	if full.AvgLatency() < sram.AvgLatency()+float64(dram.LatencyCycles) {
		t.Fatalf("DRAM stage added only %.1f cycles", full.AvgLatency()-sram.AvgLatency())
	}
	if full.Cycles < sram.Cycles {
		t.Fatal("total cycles shrank with an extra stage")
	}
}

func TestSimulateDRAMBandwidthBound(t *testing.T) {
	// With one issue slot per cycle the DRAM stage caps throughput at one
	// query per cycle regardless of engine count.
	model, dir, trace := buildBucketized(t, 1500, 3)
	res, err := SimulateDRAM(model, dir, trace, DefaultConfig(), DRAMConfig{
		LatencyCycles: 30, IssuePerCycle: 1, SearchCycles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tput := float64(res.Queries) / float64(res.Cycles); tput > 1.0 {
		t.Fatalf("throughput %.3f exceeds the 1-fetch/cycle DRAM bound", tput)
	}
	// A wider controller restores throughput.
	wide, err := SimulateDRAM(model, dir, trace, DefaultConfig(), DRAMConfig{
		LatencyCycles: 30, IssuePerCycle: 4, SearchCycles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wide.DRAMStallCycles > res.DRAMStallCycles {
		t.Fatal("wider DRAM issue increased stalls")
	}
}

func TestSimulateDRAMValidation(t *testing.T) {
	model, dir, trace := buildBucketized(t, 500, 4)
	bad := []DRAMConfig{
		{LatencyCycles: 0, IssuePerCycle: 1},
		{LatencyCycles: 10, IssuePerCycle: 0},
		{LatencyCycles: 10, IssuePerCycle: 1, SearchCycles: -1},
	}
	for i, d := range bad {
		if _, err := SimulateDRAM(model, dir, trace, DefaultConfig(), d); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
