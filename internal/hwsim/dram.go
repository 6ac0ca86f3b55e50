package hwsim

import (
	"fmt"
	"sort"

	"neurolpm/internal/bucket"
	"neurolpm/internal/keys"
	"neurolpm/internal/rqrmi"
)

// DRAMConfig models the off-chip stage of the full Figure 3 pipeline: after
// the secondary search resolves a bucket-directory index, the Bucket Reader
// issues one DRAM fetch and the Bucket Search scans the returned ranges.
// The paper evaluates this design with a software emulator (§9); here it is
// modeled at cycle level as an extension.
type DRAMConfig struct {
	// LatencyCycles is the fixed fetch latency (~30 cycles at the
	// prototype's 100MHz for a commodity-DRAM row hit).
	LatencyCycles int
	// IssuePerCycle is how many bucket fetches the memory controller can
	// start per cycle (bandwidth in bucket units).
	IssuePerCycle int
	// SearchCycles is the Bucket Search scan time over the fetched k−1
	// bounds (comparators run in parallel; 1–2 cycles typical).
	SearchCycles int
}

// DefaultDRAMConfig models one commodity DRAM channel behind the engine.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{LatencyCycles: 30, IssuePerCycle: 1, SearchCycles: 2}
}

func (c DRAMConfig) validate() error {
	if c.LatencyCycles < 1 {
		return fmt.Errorf("hwsim: DRAM latency must be positive")
	}
	if c.IssuePerCycle < 1 {
		return fmt.Errorf("hwsim: DRAM issue rate must be positive")
	}
	if c.SearchCycles < 0 {
		return fmt.Errorf("hwsim: negative bucket-search time")
	}
	return nil
}

// DRAMResult extends Result with the off-chip stage's statistics.
type DRAMResult struct {
	Result
	DRAMFetches     uint64
	DRAMStallCycles uint64 // cycles jobs waited for a free issue slot
	MaxQueueDepth   int
}

// SimulateDRAM runs the full bucketized pipeline: inference → secondary
// search over the SRAM bucket directory → one DRAM bucket fetch → bucket
// search. The directory must be the index the model was trained on.
//
// The DRAM stage is decoupled from the SRAM pipeline by a FIFO, so its
// behaviour is a deterministic function of the per-query SRAM completion
// times; simulating it as a second pass over those times is exact in the
// unbounded-FIFO (backpressure-free) regime the paper's designs target.
func SimulateDRAM(m *rqrmi.Model, dir *bucket.Directory, trace []keys.Value, cfg Config, dram DRAMConfig) (*DRAMResult, error) {
	if err := dram.validate(); err != nil {
		return nil, err
	}
	sram, err := Simulate(m, dir, trace, cfg)
	if err != nil {
		return nil, err
	}
	type job struct {
		query int
		ready uint64 // cycle the SRAM stage produced the bucket index
	}
	jobs := make([]job, len(trace))
	for q := range trace {
		jobs[q] = job{query: q, ready: sram.finishedAt[q]}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ready < jobs[j].ready })

	res := &DRAMResult{Result: *sram}
	res.Latencies = append([]uint32(nil), sram.Latencies...)
	service := uint64(dram.LatencyCycles + dram.SearchCycles)

	cycle := uint64(0)
	head := 0 // next job to issue
	for head < len(jobs) {
		if cycle < jobs[head].ready {
			cycle = jobs[head].ready
		}
		// Queue depth right now: jobs ready but not yet issued.
		depth := 0
		for i := head; i < len(jobs) && jobs[i].ready <= cycle; i++ {
			depth++
		}
		if depth > res.MaxQueueDepth {
			res.MaxQueueDepth = depth
		}
		for issued := 0; head < len(jobs) && jobs[head].ready <= cycle && issued < dram.IssuePerCycle; issued++ {
			j := jobs[head]
			head++
			wait := cycle - j.ready
			res.DRAMStallCycles += wait
			res.DRAMFetches++
			done := cycle + service
			res.Latencies[j.query] = uint32(done - (j.ready - uint64(sram.Latencies[j.query])))
			if done > res.Cycles {
				res.Cycles = done
			}
		}
		cycle++
	}
	return res, nil
}
