package rqrmi

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/telemetry"
)

// Training telemetry: the distributions the paper's training-time argument
// rests on (§5.2.1 error bounds, §5.2 responsibilities) as live metrics.
var (
	metTrainRuns = telemetry.Default.Counter("neurolpm_train_runs_total",
		"RQRMI training runs")
	metTrainNs = telemetry.Default.Counter("neurolpm_train_ns_total",
		"Nanoseconds spent in RQRMI training")
	metTrainSubmodelErr = telemetry.Default.Histogram("neurolpm_train_submodel_err",
		"Final-stage submodel error bounds (paper §5.2.1)")
	metTrainRespSize = telemetry.Default.Histogram("neurolpm_train_responsibility_entries",
		"Index entries per final-stage submodel responsibility (paper §5.2)")
)

// Config is the shape of an RQRMI model. Training has no knobs: every
// submodel is fitted to all of its responsibility, deterministically, to the
// tightest bound its eight units reach (fit.go). The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// StageWidths is the number of submodels per stage. The paper's
	// configuration — 1, 4, 64 — achieves good performance on all evaluated
	// rule-sets (§8).
	StageWidths []int
	// Workers bounds training parallelism (§6.5: submodels are independent);
	// the trained model does not depend on it. Zero means GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the paper's model configuration.
func DefaultConfig() Config {
	return Config{StageWidths: []int{1, 4, 64}}
}

func (c *Config) validate() error {
	if len(c.StageWidths) == 0 {
		return fmt.Errorf("rqrmi: config has no stages")
	}
	if c.StageWidths[0] != 1 {
		return fmt.Errorf("rqrmi: stage 0 width must be 1, got %d", c.StageWidths[0])
	}
	for _, w := range c.StageWidths {
		if w < 1 {
			return fmt.Errorf("rqrmi: invalid stage width %d", w)
		}
	}
	return nil
}

// Stats reports what training did.
type Stats struct {
	Duration     time.Duration
	SubmodelErrs []int // final-stage error bounds
}

// Train fits an RQRMI model to the index over a width-bit key domain.
// Training is stage by stage; submodels within a stage train in parallel.
func Train(ix Index, width int, cfg Config) (*Model, *Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if ix.Len() == 0 {
		return nil, nil, fmt.Errorf("rqrmi: cannot train on an empty index")
	}
	start := time.Now()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := &Model{Width: width, N: ix.Len(), Stages: make([][]LUT, len(cfg.StageWidths))}
	stats := &Stats{}

	// Responsibilities of the submodels in the stage being trained.
	resp := domainResp(width)

	for s, stageWidth := range cfg.StageWidths {
		m.Stages[s] = make([]LUT, stageWidth)
		final := s == len(cfg.StageWidths)-1

		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for j := 0; j < stageWidth; j++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(j int) {
				defer wg.Done()
				defer func() { <-sem }()
				m.Stages[s][j] = trainSubmodel(ix, width, resp[j], final)
			}(j)
		}
		wg.Wait()

		if !final {
			// Route the domain through the freshly compiled stage to obtain
			// the next stage's responsibilities (analytically, §5.2).
			n := cfg.StageWidths[s+1]
			resp = descend(resp, n, func(j int, ivs []interval) [][]interval {
				return partition(width, &m.Stages[s][j], n, ivs)
			})
		} else {
			for j := range m.Stages[s] {
				e := int(m.Stages[s][j].Err)
				stats.SubmodelErrs = append(stats.SubmodelErrs, e)
				metTrainSubmodelErr.ObserveInt(e)
				metTrainRespSize.ObserveInt(respEntries(ix, resp[j]))
			}
		}
	}
	stats.Duration = time.Since(start)
	metTrainRuns.Inc()
	metTrainNs.Add(uint64(stats.Duration.Nanoseconds()))
	if err := m.validate(); err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}

// respEntries counts the index entries a responsibility covers — the size
// of the slice of the learned array one final-stage submodel answers for.
func respEntries(ix Index, ivs []interval) int {
	total := 0
	for _, iv := range ivs {
		total += find(ix, iv.Hi) - find(ix, iv.Lo) + 1
	}
	return total
}

// trainSubmodel fits one submodel to its responsibility, compiles it and,
// for a final-stage submodel, computes its error bound. Internal stages need
// none: routing is recomputed analytically from whatever the stage learned.
func trainSubmodel(ix Index, width int, ivs []interval, final bool) LUT {
	pts := boundaryPoints(ix, width, ivs)
	if len(pts) == 0 {
		return constLUT(0)
	}
	lut := fitMLP(pts, ix.Len()).compile()
	if final {
		lut.Err = errorBound(width, &lut, ix, ivs)
	}
	return lut
}

// boundaryPoints returns what a submodel has to learn: (u(Low(r)), r) for
// every index entry r that starts inside the responsibility, plus both ends
// of each interval with the entries they fall in, in ascending order (ivs is
// sorted in place to get there: routing hands intervals over in any order).
// Boundaries that share a float32 coordinate — inference cannot tell them
// apart — become one point midway through the entries they span.
func boundaryPoints(ix Index, width int, ivs []interval) []point {
	slices.SortFunc(ivs, func(a, b interval) int { return a.Lo.Cmp(b.Lo) })
	pts := make([]point, 0, respEntries(ix, ivs)+len(ivs))
	first := 0.0 // y of the first boundary at the last point's coordinate
	add := func(k keys.Value, r int) {
		x, y := float64(unitOf(width, k)), float64(r)
		if n := len(pts); n > 0 && pts[n-1].x == x {
			pts[n-1].y = (first + y) / 2
			return
		}
		first = y
		pts = append(pts, point{x, y})
	}
	for _, iv := range ivs {
		lo, hi := find(ix, iv.Lo), find(ix, iv.Hi)
		add(iv.Lo, lo)
		for r := lo + 1; r <= hi; r++ {
			add(ix.Low(r), r)
		}
		add(iv.Hi, hi)
	}
	return pts
}
