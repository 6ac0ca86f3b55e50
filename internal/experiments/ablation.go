package experiments

import (
	"fmt"
	"time"

	"neurolpm/internal/baseline/tss"
	"neurolpm/internal/bucket"
	"neurolpm/internal/cachesim"
	"neurolpm/internal/hwsim"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/workload"
)

// ModelSizeRow is one point of the §8 "effect of RQRMI size" discussion:
// bigger final stages can reduce straggler error bounds but cost training
// time, so the paper prefers small models and absorbs high-e submodels in
// the secondary search.
type ModelSizeRow struct {
	FinalSubmodels int
	TrainTime      time.Duration
	MaxErr         int
	AvgProbes      float64
	ModelBytes     int
}

// ModelSize sweeps the final-stage width on the RIPE-like rule-set.
func ModelSize(sc Scale) ([]ModelSizeRow, error) {
	rs, err := workload.Generate(workload.RIPE(), sc.Rules["ripe"], sc.Seed)
	if err != nil {
		return nil, err
	}
	arr, err := ranges.Convert(rs)
	if err != nil {
		return nil, err
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.TraceLen/10+1, sc.Seed+11))
	if err != nil {
		return nil, err
	}
	var rows []ModelSizeRow
	for _, final := range []int{8, 16, 32, 64, 128} {
		cfg := sc.Model
		cfg.StageWidths = []int{1, 4, final}
		start := time.Now()
		model, _, err := rqrmi.Train(arr, rs.Width, cfg)
		if err != nil {
			return nil, err
		}
		row := ModelSizeRow{
			FinalSubmodels: final,
			TrainTime:      time.Since(start),
			MaxErr:         model.MaxErr(),
			ModelBytes:     model.SizeBytes(),
		}
		var probes uint64
		for _, k := range trace {
			_, p := model.Lookup(arr, k)
			probes += uint64(p)
		}
		row.AvgProbes = float64(probes) / float64(len(trace))
		rows = append(rows, row)
	}
	return rows, nil
}

// ModelSizeTable renders the sweep.
func ModelSizeTable(rows []ModelSizeRow) *Table {
	t := &Table{
		Title:  "§8 ablation: RQRMI final-stage width vs training time and lookup cost",
		Header: []string{"final submodels", "train [ms]", "max err bound", "avg probes", "model bytes"},
		Notes:  []string{"paper: prefer small models; absorb straggler error bounds in the secondary search"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fi(r.FinalSubmodels), fi(int(r.TrainTime.Milliseconds())),
			fi(r.MaxErr), f2(r.AvgProbes), fi(r.ModelBytes),
		})
	}
	return t
}

// TSSRow is the Tuple Space Search table-count sensitivity of §3.3.
type TSSRow struct {
	Family    string
	Width     int
	Tables    int
	AvgProbes float64
}

// TSSSensitivity measures per-query table probes for routing vs
// string-matching rule-sets — the structural sensitivity that disqualifies
// TSS as a multi-purpose engine (§3.3: >26 tables for NIDS strings).
func TSSSensitivity(sc Scale) ([]TSSRow, error) {
	var rows []TSSRow
	for _, family := range []string{"ripe", "stanford", "snort"} {
		p := workload.Profiles()[family]
		rs, err := workload.Generate(p, sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		eng, err := tss.Build(rs)
		if err != nil {
			return nil, err
		}
		trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.TraceLen/10+1, sc.Seed+12))
		if err != nil {
			return nil, err
		}
		var probes uint64
		for _, k := range trace {
			_, _, pr := eng.LookupMem(k, cachesim.Null{})
			probes += uint64(pr)
		}
		rows = append(rows, TSSRow{
			Family: family, Width: p.Width, Tables: eng.NumTables(),
			AvgProbes: float64(probes) / float64(len(trace)),
		})
	}
	return rows, nil
}

// TSSSensitivityTable renders the comparison.
func TSSSensitivityTable(rows []TSSRow) *Table {
	t := &Table{
		Title:  "§3.3: Tuple Space Search sensitivity to prefix-length diversity",
		Header: []string{"family", "width", "hash tables", "avg tables probed/query"},
		Notes:  []string{"paper: NIDS string rules need >26 tables; NVIDIA NICs lose 2.5x/7.5x throughput at 4/16 tables"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Family, fi(r.Width), fi(r.Tables), f2(r.AvgProbes)})
	}
	return t
}

// DRAMPipelineRow is one configuration of the full (bucketized) pipeline
// cycle model — an extension beyond the paper's SRAM-only RTL.
type DRAMPipelineRow struct {
	IssuePerCycle int
	Throughput    float64
	AvgLatency    float64
	MaxQueue      int
	StallCycles   uint64
}

// DRAMPipeline measures the cycle-level engine with the Bucket Reader /
// Bucket Search stage attached, sweeping the DRAM issue bandwidth.
func DRAMPipeline(sc Scale) ([]DRAMPipelineRow, error) {
	rs, err := workload.Generate(workload.RIPE(), sc.Rules["ripe"], sc.Seed)
	if err != nil {
		return nil, err
	}
	arr, err := ranges.Convert(rs)
	if err != nil {
		return nil, err
	}
	dir, err := bucket.Build(arr, 8)
	if err != nil {
		return nil, err
	}
	model, _, err := rqrmi.Train(dir, rs.Width, sc.Model)
	if err != nil {
		return nil, err
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.HWTraceLen, sc.Seed+13))
	if err != nil {
		return nil, err
	}
	var rows []DRAMPipelineRow
	for _, issue := range []int{1, 2, 4} {
		dram := hwsim.DefaultDRAMConfig()
		dram.IssuePerCycle = issue
		res, err := hwsim.SimulateDRAM(model, dir, trace, hwsim.DefaultConfig(), dram)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DRAMPipelineRow{
			IssuePerCycle: issue,
			Throughput:    float64(res.Queries) / float64(res.Cycles),
			AvgLatency:    res.AvgLatency(),
			MaxQueue:      res.MaxQueueDepth,
			StallCycles:   res.DRAMStallCycles,
		})
	}
	return rows, nil
}

// DRAMPipelineTable renders the sweep.
func DRAMPipelineTable(rows []DRAMPipelineRow) *Table {
	t := &Table{
		Title:  "extension: full pipeline with DRAM bucket fetch (Fig 3), issue-bandwidth sweep",
		Header: []string{"DRAM fetches/cycle", "tput [q/cyc]", "avg latency [cyc]", "max queue", "stall cycles"},
		Notes:  []string{"one bucket fetch per query by construction (§7); bandwidth, not the error bound, sets the DRAM demand"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fi(r.IssuePerCycle), f3(r.Throughput), f1(r.AvgLatency),
			fi(r.MaxQueue), fmt.Sprintf("%d", r.StallCycles),
		})
	}
	return t
}

// EMRow quantifies §3.3's hybrid exact-match argument: offloading rules of
// length ≥ threshold to an exact-match table requires expanding each to
// full-width entries, and the entry count explodes with the threshold.
type EMRow struct {
	Family    string
	Threshold int     // rules with len ≥ threshold go to the EM table
	EMRules   int     // rules offloaded
	EMEntries uint64  // expanded exact-match entries
	EMBytes   uint64  // at width/8 key bytes + 4B action per entry
	Expansion float64 // entries per offloaded rule
}

// EMExpansion computes the exact-match expansion for the routing families
// at /24, /28 and /32 offload thresholds (fully analytic from the prefix
// histogram — building 100M-entry tables is the point being refuted).
func EMExpansion(sc Scale) ([]EMRow, error) {
	var rows []EMRow
	for _, family := range routingFamilies {
		p := workload.Profiles()[family]
		rs, err := workload.Generate(p, sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		hist := rs.PrefixHistogram()
		for _, thr := range []int{24, 28, 32} {
			row := EMRow{Family: family, Threshold: thr}
			for l := thr; l <= p.Width; l++ {
				n := uint64(hist[l])
				row.EMRules += hist[l]
				row.EMEntries += n << uint(p.Width-l)
			}
			row.EMBytes = row.EMEntries * uint64(p.Width/8+4)
			if row.EMRules > 0 {
				row.Expansion = float64(row.EMEntries) / float64(row.EMRules)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// EMExpansionTable renders the blow-up.
func EMExpansionTable(rows []EMRow) *Table {
	t := &Table{
		Title:  "§3.3: hybrid exact-match offload — expansion of rules with len ≥ threshold to EM entries",
		Header: []string{"family", "threshold", "rules offloaded", "EM entries", "EM size [MB]", "entries/rule"},
		Notes:  []string{"paper: expansion grows exponentially with wildcard bits, forcing EM tables off-chip (rule 01* → 010, 011)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Family, fi(r.Threshold), fi(r.EMRules),
			fu(r.EMEntries), f1(float64(r.EMBytes) / 1e6), f1(r.Expansion),
		})
	}
	return t
}
