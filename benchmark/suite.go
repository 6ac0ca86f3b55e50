package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runSet is a complete set of runs: every workload, runs times, each run a
// process of its own exactly as the driver starts it.
type runSet struct {
	Env  map[string]string `json:"env"`
	Runs []setRun          `json:"runs"`
}

type setRun struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runSuite measures a set and writes it to path. Workloads are interleaved
// seed by seed, so drift over the set's half hour lands on all of them.
func runSuite(sp *spec, cfg runConfig, path string, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Env: map[string]string{
		"nproc": strconv.Itoa(runtime.NumCPU()), "gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go": runtime.Version(), "seconds": cfg.span.String(), "rules": strconv.Itoa(cfg.rules),
	}}
	for i := 0; i < runs; i++ {
		for _, w := range sp.Workloads {
			seed := cfg.seed + int64(i)
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.span.Seconds(), 'g', -1, 64), "-trace", "0",
				"-root", cfg.root, "-scratch", cfg.scratch}
			cmd := exec.Command(self, args...)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w.Name, seed, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", w.Name, seed, err)
			}
			r := setRun{Workload: w.Name, Seed: seed, Attempted: res.Attempted, Failed: res.Failed,
				Metrics: make(map[string]float64, len(res.Metrics))}
			for n, v := range res.Metrics {
				r.Metrics[n] = v.Value
			}
			set.Runs = append(set.Runs, r)
			fmt.Fprintf(os.Stderr, "%s seed %d: qps %.0f p50 %.1f us failed %d\n",
				w.Name, seed, r.Metrics["qps"], r.Metrics["p50_us"], r.Failed)
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values returns one metric's value in every run of a workload.
func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			out = append(out, r.Metrics[metric])
		}
	}
	return out
}

// worseBy is how much worse b's median is than a's, as a share of a's;
// negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b reads better than every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(d, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareSets prints, for each pairing of workload and end-to-end metric,
// set b's median against set a's and the bound from BENCHMARK.json. A pair
// whose run-to-run spread exceeds the bound is unresolved, not unchanged,
// unless every run of b beats every run of a. It returns the exit code: 1
// if any pair regressed or any run failed an operation.
func compareSets(sp *spec, pathA, pathB string, w io.Writer) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "iqr a", "iqr b", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, d := range sp.EndToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-20s missing from a set\n", wl.Name, d.Name)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worseBy(d, ma, mb)
			sa, sb := spread(va), spread(vb)
			verdict := "unchanged"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				code = 1
			case sa > d.Bound || sb > d.Bound:
				if allBetter(d, va, vb) {
					verdict = "better"
				} else {
					verdict = "unresolved"
				}
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	for _, s := range []*runSet{a, b} {
		for _, r := range s.Runs {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}
