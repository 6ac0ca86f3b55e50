// Package hwsim is a cycle-level model of the SRAM-only NeuroLPM pipeline
// (paper Fig 5a, §6, §9): one or two fully-pipelined RQRMI inference
// engines feed a pool of binary-search FSMs over banked SRAM through a
// crossbar with a round-robin arbiter per bank. The simulator reproduces the
// quantities the paper's hardware evaluation reports — queries per cycle,
// end-to-end latency, bank conflicts (Fig 8, Fig 9) — and the analytical
// bank-throughput model of §6.2.1 (Fig 6a).
package hwsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"neurolpm/internal/keys"
	"neurolpm/internal/rqrmi"
)

// Config is a hardware configuration point. The paper explores 1–2 RQRMI
// engines, 8–32 banks and 8–96 FSMs; banks must be a power of two for cheap
// bank indexing (§6.2).
type Config struct {
	Engines          int
	FSMs             int
	Banks            int
	InferenceLatency int // cycles; the prototype's RQRMI pipeline takes 22 (§10.3)
}

// DefaultConfig is the paper's best-performing large configuration:
// two RQRMI engines, 32 banks, 96 FSMs (196Mpps at 100MHz, §10.3).
func DefaultConfig() Config {
	return Config{Engines: 2, FSMs: 96, Banks: 32, InferenceLatency: 22}
}

func (c Config) validate() error {
	if c.Engines < 1 || c.Engines > 2 {
		return fmt.Errorf("hwsim: engines must be 1 or 2, got %d", c.Engines)
	}
	if c.FSMs < 1 {
		return fmt.Errorf("hwsim: need at least one FSM")
	}
	if c.Banks < 1 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("hwsim: banks must be a positive power of two, got %d", c.Banks)
	}
	if c.InferenceLatency < 1 {
		return fmt.Errorf("hwsim: inference latency must be positive")
	}
	return nil
}

// Result aggregates one simulation run.
type Result struct {
	Config        Config
	Queries       int
	Cycles        uint64
	BankAccesses  uint64 // granted SRAM reads
	BankConflicts uint64 // cycles an FSM was denied by arbitration
	EngineStalls  uint64 // cycles an engine was stalled awaiting an FSM
	FSMBusyCycles uint64 // Σ over cycles of busy FSMs (occupancy numerator)
	Latencies     []uint32
}

// Throughput returns average queries per cycle.
func (r *Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Queries) / float64(r.Cycles)
}

// AvgLatency returns the mean end-to-end latency in cycles.
func (r *Result) AvgLatency() float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range r.Latencies {
		sum += float64(l)
	}
	return sum / float64(len(r.Latencies))
}

// AvgBankAccesses returns the mean SRAM reads per query — the quantity the
// §6.2.1 sizing analysis is parameterized on.
func (r *Result) AvgBankAccesses() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.BankAccesses) / float64(r.Queries)
}

// LatencyCDF returns latency values at the given quantiles (0..1).
func (r *Result) LatencyCDF(quantiles []float64) []uint32 {
	if len(r.Latencies) == 0 {
		return make([]uint32, len(quantiles))
	}
	sorted := append([]uint32(nil), r.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]uint32, len(quantiles))
	for i, q := range quantiles {
		idx := int(q*float64(len(sorted)-1) + 0.5)
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out[i] = sorted[idx]
	}
	return out
}

// MppsAt returns throughput in million queries per second at the given
// clock (the paper reports 196Mpps at 100MHz).
func (r *Result) MppsAt(hz float64) float64 {
	return r.Throughput() * hz / 1e6
}

// fsm is one secondary-search state machine.
type fsm struct {
	busy     bool
	lo, hi   int
	key      keys.Value
	query    int    // trace index served, for latency bookkeeping
	injected uint64 // cycle the query entered its inference engine
}

// engine is one RQRMI inference pipeline: a shift register of queries with
// an output register that must drain to an FSM before the pipeline advances.
type engine struct {
	stages []int // query ids in flight; -1 = bubble
	out    int   // query id awaiting an FSM; -1 = empty
	outKey keys.Value
}

// Simulate runs the trace through the hardware model. The model and index
// must be the ones the engine actually serves (predictions and search
// windows are computed with the real inference arithmetic, so probe counts
// and bank addresses are exact, not sampled).
func Simulate(m *rqrmi.Model, ix rqrmi.Index, trace []keys.Value, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("hwsim: empty trace")
	}
	res := &Result{
		Config:    cfg,
		Queries:   len(trace),
		Latencies: make([]uint32, len(trace)),
	}
	injectedAt := make([]uint64, len(trace))

	engines := make([]*engine, cfg.Engines)
	for i := range engines {
		engines[i] = &engine{stages: make([]int, cfg.InferenceLatency), out: -1}
		for s := range engines[i].stages {
			engines[i].stages[s] = -1
		}
	}
	fsms := make([]fsm, cfg.FSMs)
	// Per-bank round-robin arbitration pointer.
	rrBank := make([]int, cfg.Banks)
	// Round-robin pointer for which engine stalls when FSMs are scarce.
	enginePrio := 0

	// Per-cycle scratch, allocated once and emptied each cycle.
	want := make([][]int, cfg.Banks) // bank -> contending FSM ids
	idle := make([]int, 0, cfg.FSMs)
	ready := make([]int, 0, cfg.Engines)

	next := 0 // next trace index to inject
	done := 0
	var cycle uint64

	for done < len(trace) {
		cycle++
		// 1) Secondary-search FSMs issue bank requests; per-bank round-robin
		// arbitration grants one per bank.
		for b := range want {
			want[b] = want[b][:0]
		}
		for i := range fsms {
			f := &fsms[i]
			if !f.busy {
				continue
			}
			res.FSMBusyCycles++ // busy at cycle start, even if retiring now
			if f.lo >= f.hi {
				// Search complete: publish and free this cycle.
				res.Latencies[f.query] = uint32(cycle - f.injected)
				f.busy = false
				done++
				continue
			}
			mid := (f.lo + f.hi + 1) / 2
			bank := mid & (cfg.Banks - 1)
			want[bank] = append(want[bank], i)
		}
		for b := 0; b < cfg.Banks; b++ {
			reqs := want[b]
			if len(reqs) == 0 {
				continue
			}
			// Grant the first requester at or after the rotating pointer.
			granted := reqs[0]
			for _, id := range reqs {
				if id >= rrBank[b] {
					granted = id
					break
				}
			}
			rrBank[b] = granted + 1
			if rrBank[b] >= cfg.FSMs {
				rrBank[b] = 0
			}
			res.BankAccesses++
			res.BankConflicts += uint64(len(reqs) - 1)
			f := &fsms[granted]
			mid := (f.lo + f.hi + 1) / 2
			if f.key.Less(ix.Low(mid)) {
				f.hi = mid - 1
			} else {
				f.lo = mid
			}
		}

		// 2) Engine outputs claim idle FSMs (pop-count allocator, §9); when
		// FSMs are scarce the round-robin policy picks which engine stalls.
		idle = idle[:0]
		for i := range fsms {
			if !fsms[i].busy {
				idle = append(idle, i)
			}
		}
		ready = ready[:0]
		for e := 0; e < cfg.Engines; e++ {
			ei := (enginePrio + e) % cfg.Engines
			if engines[ei].out >= 0 {
				ready = append(ready, ei)
			}
		}
		claimed := 0
		for _, ei := range ready {
			if claimed == len(idle) {
				res.EngineStalls++
				continue
			}
			fi := idle[claimed]
			claimed++
			eng := engines[ei]
			q := eng.out
			eng.out = -1
			p := m.Predict(eng.outKey)
			lo, hi := p.Index-p.Err, p.Index+p.Err
			if lo < 0 {
				lo = 0
			}
			if hi > ix.Len()-1 {
				hi = ix.Len() - 1
			}
			fsms[fi] = fsm{busy: true, lo: lo, hi: hi, key: eng.outKey, query: q, injected: injectedAt[q]}
		}
		enginePrio = (enginePrio + 1) % cfg.Engines

		// 3) Engine pipelines advance; stalled pipelines (occupied output
		// register) hold every stage.
		for _, eng := range engines {
			if eng.out >= 0 {
				continue // stalled
			}
			last := len(eng.stages) - 1
			if q := eng.stages[last]; q >= 0 {
				eng.out = q
				eng.outKey = trace[q]
			}
			copy(eng.stages[1:], eng.stages[:last])
			eng.stages[0] = -1
			if next < len(trace) {
				eng.stages[0] = next
				injectedAt[next] = cycle
				next++
			}
		}
	}
	res.Cycles = cycle
	return res, nil
}

// TheoreticalBankThroughput is the §6.2.1 closed form: with k FSMs issuing
// independent uniform requests over m banks, the expected number of busy
// banks per cycle is T = m·(1 − ((m−1)/m)^k) — the birthday-style upper
// bound plotted in Fig 6a.
func TheoreticalBankThroughput(banks, fsms int) float64 {
	m := float64(banks)
	return m * (1 - math.Pow((m-1)/m, float64(fsms)))
}

// SimulateBankContention measures the same quantity empirically: k FSMs
// each request one uniformly random bank per cycle (independent requests,
// as the analytical model assumes) and each bank serves one request.
func SimulateBankContention(banks, fsms, cycles int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	served := 0
	hit := make([]bool, banks)
	for c := 0; c < cycles; c++ {
		for i := range hit {
			hit[i] = false
		}
		for f := 0; f < fsms; f++ {
			hit[rng.Intn(banks)] = true
		}
		for _, h := range hit {
			if h {
				served++
			}
		}
	}
	return float64(served) / float64(cycles)
}
