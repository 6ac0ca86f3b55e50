package experiments

import (
	"neurolpm/internal/core"
	"neurolpm/internal/hwsim"
	"neurolpm/internal/workload"
)

// DesignSpaceRow compares the two §6.2 secondary-search organizations the
// paper weighed: a log-depth staged pipeline versus a pool of decoupled
// FSMs (the chosen design).
type DesignSpaceRow struct {
	Family           string
	StagedThroughput float64
	StagedLatency    float64
	StagedStalls     uint64
	FSMThroughput    float64
	FSMLatency       float64
	FSMStages        int // pipeline depth the staged design needed
}

// DesignSpace runs both designs on the same model, traces and bank count
// (16 banks, 48 FSMs for the FSM pool, 1 engine each).
func DesignSpace(sc Scale) ([]DesignSpaceRow, error) {
	var rows []DesignSpaceRow
	for _, family := range routingFamilies {
		rs, err := workload.Generate(workload.Profiles()[family], sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		eng, err := core.Build(rs, core.Config{Model: sc.Model})
		if err != nil {
			return nil, err
		}
		trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.HWTraceLen, sc.Seed+15))
		if err != nil {
			return nil, err
		}
		staged, err := hwsim.SimulatePipelined(eng.Model(), eng.Ranges(), trace, hwsim.PipelinedConfig{
			Engines: 1, Banks: 16, InferenceLatency: 22,
		})
		if err != nil {
			return nil, err
		}
		fsm, err := hwsim.Simulate(eng.Model(), eng.Ranges(), trace, hwsim.Config{
			Engines: 1, Banks: 16, FSMs: 48, InferenceLatency: 22,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, DesignSpaceRow{
			Family:           family,
			StagedThroughput: staged.Throughput(),
			StagedLatency:    staged.AvgLatency(),
			StagedStalls:     staged.StallCycles,
			FSMThroughput:    fsm.Throughput(),
			FSMLatency:       fsm.AvgLatency(),
			FSMStages:        staged.Stages,
		})
	}
	return rows, nil
}

// DesignSpaceTable renders the comparison.
func DesignSpaceTable(rows []DesignSpaceRow) *Table {
	t := &Table{
		Title:  "§6.2 design space: staged search pipeline vs FSM pool (1 engine, 16 banks)",
		Header: []string{"family", "staged tput", "staged lat [cyc]", "staged stalls", "FSM tput", "FSM lat [cyc]", "stage depth"},
		Notes: []string{
			"the paper chose FSMs for simplicity; the staged design stalls whole-pipeline on any bank conflict",
			"FSM column uses 48 FSMs (the paper's best single-engine point)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Family, f3(r.StagedThroughput), f1(r.StagedLatency),
			fu(r.StagedStalls), f3(r.FSMThroughput), f1(r.FSMLatency), fi(r.FSMStages),
		})
	}
	return t
}
