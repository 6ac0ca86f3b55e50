package experiments

import (
	"runtime"
	"time"

	"neurolpm/internal/hwsim"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/workload"
)

// Fig6aPoint is one point of the Figure 6a memory-subsystem model.
type Fig6aPoint struct {
	Banks      int
	FSMs       int
	Analytical float64 // T = m(1-((m-1)/m)^k)
	Simulated  float64 // micro-simulation under the same independence assumption
}

// Fig6a regenerates Figure 6a: theoretical average memory throughput vs the
// number of FSMs for 8/16/32 banks, alongside a micro-simulation.
func Fig6a(seed int64) []Fig6aPoint {
	var out []Fig6aPoint
	for _, banks := range []int{8, 16, 32} {
		for fsms := 5; fsms <= 100; fsms += 5 {
			out = append(out, Fig6aPoint{
				Banks:      banks,
				FSMs:       fsms,
				Analytical: hwsim.TheoreticalBankThroughput(banks, fsms),
				Simulated:  hwsim.SimulateBankContention(banks, fsms, 3000, seed),
			})
		}
	}
	return out
}

// Fig6aTable renders the curve (one row per point).
func Fig6aTable(points []Fig6aPoint) *Table {
	t := &Table{
		Title:  "Figure 6a: average memory-subsystem throughput vs number of FSMs",
		Header: []string{"banks", "FSMs", "T analytic [acc/cyc]", "T simulated [acc/cyc]"},
		Notes:  []string{"analytic: T = m·(1−((m−1)/m)^k), the §6.2.1 birthday bound"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{fi(p.Banks), fi(p.FSMs), f2(p.Analytical), f2(p.Simulated)})
	}
	return t
}

// Fig6bRow is one row of Figure 6b: training time and lookup throughput
// against one of the paper's target error bounds.
type Fig6bRow struct {
	TargetLog2E     int
	AvgBankAccesses float64
	Throughput      float64 // hw queries/cycle
	TrainSequential time.Duration
	TrainParallel   time.Duration
	Workers         int
	Stragglers      int // final-stage submodels whose bound exceeds the target
}

// Fig6b regenerates Figure 6b on the RIPE-like rule-set. The paper trades
// training time against the target bound (log₂e = 6, 7, 8: looser is faster
// to train and slower to search). The spline fit has no such trade to make —
// it always returns the tightest bound eight units reach — so the model is
// trained once per core count and each target is checked against the bounds
// that one training produced.
func Fig6b(sc Scale) ([]Fig6bRow, error) {
	rs, err := workload.Generate(workload.RIPE(), sc.Rules["ripe"], sc.Seed)
	if err != nil {
		return nil, err
	}
	arr, err := ranges.Convert(rs)
	if err != nil {
		return nil, err
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.HWTraceLen, sc.Seed+1))
	if err != nil {
		return nil, err
	}
	cfg := sc.Model
	cfg.Workers = 1
	_, seq, err := rqrmi.Train(arr, rs.Width, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Workers = runtime.GOMAXPROCS(0)
	model, par, err := rqrmi.Train(arr, rs.Width, cfg)
	if err != nil {
		return nil, err
	}
	res, err := hwsim.Simulate(model, arr, trace, hwsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var rows []Fig6bRow
	for _, log2e := range []int{6, 7, 8} {
		row := Fig6bRow{
			TargetLog2E:     log2e,
			AvgBankAccesses: res.AvgBankAccesses(),
			Throughput:      res.Throughput(),
			TrainSequential: seq.Duration,
			TrainParallel:   par.Duration,
			Workers:         cfg.Workers,
		}
		for _, e := range par.SubmodelErrs {
			if e > 1<<log2e {
				row.Stragglers++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6bTable renders the tradeoff rows.
func Fig6bTable(rows []Fig6bRow) *Table {
	t := &Table{
		Title: "Figure 6b: training time and its effect on end-to-end lookup throughput",
		Header: []string{
			"target log2(e)", "avg bank accesses", "lookup tput [q/cyc]",
			"train 1-core [ms]", "train parallel [ms]", "workers", "submodels over target",
		},
		Notes: []string{
			"one deterministic fit serves all three rows: it has no time-vs-bound trade, so each target is checked against the bounds that fit reached",
			"substitution: wall-clock on this machine instead of the paper's Intel x86 / BlueField-2 ARM hosts",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fi(r.TargetLog2E), f2(r.AvgBankAccesses), f3(r.Throughput),
			fi(int(r.TrainSequential.Milliseconds())), fi(int(r.TrainParallel.Milliseconds())),
			fi(r.Workers), fi(r.Stragglers),
		})
	}
	return t
}
