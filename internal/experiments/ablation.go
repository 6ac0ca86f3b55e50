package experiments

import (
	"time"

	"neurolpm/internal/baseline/tss"
	"neurolpm/internal/cachesim"
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
