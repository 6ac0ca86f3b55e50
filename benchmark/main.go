// Command benchmark is the repository's one benchmark (BENCHMARK.json at the
// root names it): six workloads from the bare engine to the wire protocol
// under churn, every answer verified against the trie oracle, end-to-end
// metrics from an untraced run and per-layer metrics from a traced one. See
// README.md beside this file.
//
//	bash benchmark/run.sh --workload wire_burst --seed 7 --seconds 6 --trace 0
//	bash benchmark/run.sh -suite a.json -runs 10      # a complete set of runs
//	bash benchmark/run.sh -compare a.json b.json      # two sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec mirrors BENCHMARK.json, the one place metric names, units and bounds
// are written down.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	span     time.Duration
	warm     time.Duration
	trace    bool
	rules    int // ripe profile, width 32
	keys     int // trace length

	root     string // the checkout
	scratch  string // where rule files, binaries and span files go
	lpmserve string // built into scratch when empty
}

func main() {
	cfg := runConfig{warm: 300 * time.Millisecond, rules: 870000, keys: 1000000}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input of the run is generated from")
	seconds := flag.Float64("seconds", 6, "measured time, after set-up and warm-up")
	trace := flag.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout")
	flag.StringVar(&cfg.scratch, "scratch", "", "directory for build outputs and run files (default: <root>/.bench_build)")
	suite := flag.String("suite", "", "run every workload -runs times, one process per run, and write the set to this file")
	runs := flag.Int("runs", 10, "runs per workload in a -suite set, each on its own seed")
	compare := flag.Bool("compare", false, "compare two -suite files given as arguments against BENCHMARK.json's bounds")
	echoChild := flag.Bool("echo-child", false, "internal: serve the 32-byte loopback echo and exit")
	flag.Parse()

	if *echoChild {
		if err := echoServe(); err != nil {
			fatal(err)
		}
		return
	}
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		fatal(err)
	}
	if cfg.scratch == "" {
		cfg.scratch = filepath.Join(cfg.root, ".bench_build")
	}
	sp, err := loadSpec(cfg.root)
	if err != nil {
		fatal(err)
	}
	cfg.span = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace != 0

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two set files"))
		}
		os.Exit(compareSets(sp, flag.Arg(0), flag.Arg(1), os.Stdout))
	case *suite != "":
		if err := runSuite(sp, cfg, *suite, *runs); err != nil {
			fatal(err)
		}
	default:
		known := false
		for _, w := range sp.Workloads {
			known = known || w.Name == cfg.workload
		}
		if !known {
			fatal(fmt.Errorf("unknown workload %q", cfg.workload))
		}
		res, err := runWorkload(sp, cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// report prints the run's header and every metric by name with its unit.
func report(cfg runConfig, defs []metricDef, vals map[string]float64, notes []string) map[string]value {
	fmt.Printf("workload %s  seed %d  measured %v over %d rounds, each after %v warm-up  trace %v\n",
		cfg.workload, cfg.seed, cfg.span, rounds, cfg.warm, cfg.trace)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s rules=%d keys=%d loopback\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.rules, cfg.keys)
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		out[d.Name] = value{Value: v, Unit: d.Unit}
		fmt.Printf("  %-28s %16.4f %s\n", d.Name, v, d.Unit)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	return out
}

// missing lists the metrics of defs that vals does not hold.
func missing(defs []metricDef, vals map[string]float64) []string {
	var out []string
	for _, d := range defs {
		if _, ok := vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

func isLib(workload string) bool { return strings.HasPrefix(workload, "lib_") }
