package experiments

import (
	"fmt"

	"neurolpm/internal/core"
	"neurolpm/internal/hwsim"
	"neurolpm/internal/workload"
)

// HWConfigPoint names one Figure 8 hardware configuration.
type HWConfigPoint struct {
	Engines, Banks, FSMs int
}

func (p HWConfigPoint) String() string {
	return fmt.Sprintf("%d-%d:%d", p.Engines, p.Banks, p.FSMs)
}

// fig8Configs mirrors the paper's evaluated space: a single RQRMI module
// with 16 banks and a doubled design with two modules and 32 banks, with
// FSMs from 16 to 96 (inferior points — FSMs < banks, 8 banks — omitted as
// in the paper).
var fig8Configs = []HWConfigPoint{
	{1, 16, 16}, {1, 16, 32}, {1, 16, 48}, {1, 16, 64}, {1, 16, 96},
	{2, 32, 32}, {2, 32, 48}, {2, 32, 64}, {2, 32, 96},
}

// Fig8Row is the throughput/latency of one (family, config) pair.
type Fig8Row struct {
	Family     string
	Config     HWConfigPoint
	Throughput float64 // queries/cycle
	AvgLatency float64 // cycles
	MppsAt100M float64
}

// Fig8 runs the cycle-level simulator (SRAM-only design) across the
// configuration space for each routing family.
func Fig8(sc Scale) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, family := range routingFamilies {
		rs, err := workload.Generate(workload.Profiles()[family], sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		// SRAM-only design: the model indexes the full range array.
		eng, err := core.Build(rs, core.Config{Model: sc.Model})
		if err != nil {
			return nil, err
		}
		trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.HWTraceLen, sc.Seed+3))
		if err != nil {
			return nil, err
		}
		for _, cfgPt := range fig8Configs {
			cfg := hwsim.Config{
				Engines: cfgPt.Engines, Banks: cfgPt.Banks, FSMs: cfgPt.FSMs,
				InferenceLatency: 22,
			}
			res, err := hwsim.Simulate(eng.Model(), eng.Ranges(), trace, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig8Row{
				Family:     family,
				Config:     cfgPt,
				Throughput: res.Throughput(),
				AvgLatency: res.AvgLatency(),
				MppsAt100M: res.MppsAt(100e6),
			})
		}
	}
	return rows, nil
}

// Fig8Table renders the configuration sweep.
func Fig8Table(rows []Fig8Row) *Table {
	t := &Table{
		Title:  "Figure 8: end-to-end hardware throughput (SRAM-only), per configuration",
		Header: []string{"family", "config (eng-banks:FSMs)", "tput [q/cyc]", "Mpps @100MHz", "avg latency [cyc]"},
		Notes:  []string{"§10.3: 2-32:96 reaches ~196Mpps at 100MHz; latency annotations correspond to Fig 8's bar labels"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Family, r.Config.String(), f3(r.Throughput), f1(r.MppsAt100M), f1(r.AvgLatency),
		})
	}
	return t
}

// fig9Quantiles are the CDF points reported for Figure 9.
var fig9Quantiles = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.00}

// Fig9Row is the latency CDF of one configuration on one family.
type Fig9Row struct {
	Family    string
	Config    HWConfigPoint
	Latencies []uint32 // at fig9Quantiles
}

// fig9Configs are the legend entries of Figure 9.
var fig9Configs = []HWConfigPoint{
	{1, 16, 16}, {1, 16, 32}, {1, 16, 48}, {2, 32, 96},
}

// Fig9 regenerates the end-to-end query latency CDF.
func Fig9(sc Scale) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, family := range routingFamilies {
		rs, err := workload.Generate(workload.Profiles()[family], sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		eng, err := core.Build(rs, core.Config{Model: sc.Model})
		if err != nil {
			return nil, err
		}
		trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.HWTraceLen, sc.Seed+4))
		if err != nil {
			return nil, err
		}
		for _, cfgPt := range fig9Configs {
			cfg := hwsim.Config{
				Engines: cfgPt.Engines, Banks: cfgPt.Banks, FSMs: cfgPt.FSMs,
				InferenceLatency: 22,
			}
			res, err := hwsim.Simulate(eng.Model(), eng.Ranges(), trace, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig9Row{
				Family:    family,
				Config:    cfgPt,
				Latencies: res.LatencyCDF(fig9Quantiles),
			})
		}
	}
	return rows, nil
}

// Fig9Table renders the CDF rows.
func Fig9Table(rows []Fig9Row) *Table {
	header := []string{"family", "config"}
	for _, q := range fig9Quantiles {
		header = append(header, fmt.Sprintf("p%02.0f [cyc]", q*100))
	}
	t := &Table{
		Title:  "Figure 9: end-to-end query latency CDF",
		Header: header,
	}
	for _, r := range rows {
		row := []string{r.Family, r.Config.String()}
		for _, l := range r.Latencies {
			row = append(row, fmt.Sprintf("%d", l))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// HeadlineResult is the §10.3 summary: the flagship configuration's
// throughput and latency decomposition.
type HeadlineResult struct {
	Family           string
	MppsAt100M       float64
	InferenceCycles  int
	AvgLatencyCycles float64
	AvgBankAccesses  float64
}

// Headline measures the 2-engine / 32-bank / 96-FSM design point the paper
// leads with (196Mpps at 100MHz; inference 22 cycles).
func Headline(sc Scale) ([]HeadlineResult, error) {
	var out []HeadlineResult
	for _, family := range routingFamilies {
		rs, err := workload.Generate(workload.Profiles()[family], sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		eng, err := core.Build(rs, core.Config{Model: sc.Model})
		if err != nil {
			return nil, err
		}
		trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.HWTraceLen, sc.Seed+5))
		if err != nil {
			return nil, err
		}
		cfg := hwsim.DefaultConfig()
		res, err := hwsim.Simulate(eng.Model(), eng.Ranges(), trace, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, HeadlineResult{
			Family:           family,
			MppsAt100M:       res.MppsAt(100e6),
			InferenceCycles:  cfg.InferenceLatency,
			AvgLatencyCycles: res.AvgLatency(),
			AvgBankAccesses:  res.AvgBankAccesses(),
		})
	}
	return out, nil
}

// HeadlineTable renders the summary.
func HeadlineTable(rows []HeadlineResult) *Table {
	t := &Table{
		Title:  "§10.3 headline: 2 RQRMI engines, 32 banks, 96 FSMs at 100MHz",
		Header: []string{"family", "Mpps @100MHz", "inference [cyc]", "avg latency [cyc]", "avg bank acc/query"},
		Notes:  []string{"paper: 196Mpps average, 22-cycle inference, 35–55-cycle secondary search"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Family, f1(r.MppsAt100M), fi(r.InferenceCycles), f1(r.AvgLatencyCycles), f2(r.AvgBankAccesses),
		})
	}
	return t
}
