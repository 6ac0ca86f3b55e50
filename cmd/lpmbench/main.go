// Command lpmbench regenerates the paper's tables and figures plus the
// extension experiments that are still plain tables (DESIGN.md §4 is the
// index; `lpmbench -h` lists the names). By default it runs every experiment
// at quick scale; -full switches to paper-scale inputs (§10.1 rule counts,
// 10M-query traces), which takes tens of minutes.
//
// Usage:
//
//	lpmbench [-exp name] [-full] [-seed N] [-metrics addr]
//
// -metrics serves /metrics and /debug/pprof while the run is in flight.
//
// lpmbench prints tables for a reader. The repository's performance record —
// the numbers one commit is compared against another on — is BENCHMARK.json
// and benchmark/, not this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"neurolpm/internal/experiments"
	"neurolpm/internal/serve"
	"neurolpm/internal/telemetry"
)

// experiment is one `-exp` name and the function that regenerates its table.
type experiment struct {
	name string
	run  func(experiments.Scale) (*experiments.Table, error)
}

// registry is every experiment, in the order `-exp all` runs them. It is the
// only list of names: the flag's usage text is printed from it, and
// main_test.go holds every name the docs cite to it.
var registry = []experiment{
	{"fig2", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Fig2(sc)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"fig6a", func(sc experiments.Scale) (*experiments.Table, error) {
		return experiments.Fig6aTable(experiments.Fig6a(sc.Seed)), nil
	}},
	{"fig6b", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Fig6b(sc)
		if err != nil {
			return nil, err
		}
		return experiments.Fig6bTable(r), nil
	}},
	{"fig7", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Fig7(sc)
		if err != nil {
			return nil, err
		}
		return experiments.Fig7Table(r), nil
	}},
	{"fig8", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Fig8(sc)
		if err != nil {
			return nil, err
		}
		return experiments.Fig8Table(r), nil
	}},
	{"fig9", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Fig9(sc)
		if err != nil {
			return nil, err
		}
		return experiments.Fig9Table(r), nil
	}},
	{"fig10", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Fig10(sc)
		if err != nil {
			return nil, err
		}
		return experiments.Fig10Table(r), nil
	}},
	{"table1", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Table1(sc)
		if err != nil {
			return nil, err
		}
		return experiments.Table1Table(r), nil
	}},
	{"expansion", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Expansion(sc)
		if err != nil {
			return nil, err
		}
		return experiments.ExpansionTable(r), nil
	}},
	{"worstcase", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.WorstCase(sc)
		if err != nil {
			return nil, err
		}
		return experiments.WorstCaseTable(r), nil
	}},
	{"binsearch", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.VsBinarySearch(sc)
		if err != nil {
			return nil, err
		}
		return experiments.VsBinarySearchTable(r), nil
	}},
	{"bitwidth", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Bitwidth(sc)
		if err != nil {
			return nil, err
		}
		return experiments.BitwidthTable(r), nil
	}},
	{"updates", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Updates(sc)
		if err != nil {
			return nil, err
		}
		return experiments.UpdatesTable(r), nil
	}},
	{"scaling", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Scaling(sc)
		if err != nil {
			return nil, err
		}
		return experiments.ScalingTable(r), nil
	}},
	{"headline", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Headline(sc)
		if err != nil {
			return nil, err
		}
		return experiments.HeadlineTable(r), nil
	}},
	{"modelsize", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.ModelSize(sc)
		if err != nil {
			return nil, err
		}
		return experiments.ModelSizeTable(r), nil
	}},
	{"tss", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.TSSSensitivity(sc)
		if err != nil {
			return nil, err
		}
		return experiments.TSSSensitivityTable(r), nil
	}},
	{"dram", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.DRAMPipeline(sc)
		if err != nil {
			return nil, err
		}
		return experiments.DRAMPipelineTable(r), nil
	}},
	{"replicas", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Replicas(sc)
		if err != nil {
			return nil, err
		}
		return experiments.ReplicasTable(r), nil
	}},
	{"designspace", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.DesignSpace(sc)
		if err != nil {
			return nil, err
		}
		return experiments.DesignSpaceTable(r), nil
	}},
	{"worstbw", func(sc experiments.Scale) (*experiments.Table, error) {
		return experiments.WorstCaseBandwidthTable(experiments.WorstCaseBandwidth()), nil
	}},
	{"emexpand", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.EMExpansion(sc)
		if err != nil {
			return nil, err
		}
		return experiments.EMExpansionTable(r), nil
	}},
	{"sharded", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.ShardedThroughput(sc)
		if err != nil {
			return nil, err
		}
		return experiments.ShardedThroughputTable(r), nil
	}},
	{"observe", func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := experiments.Observe(sc)
		if err != nil {
			return nil, err
		}
		return experiments.ObserveTable(r), nil
	}},
}

func experimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in; it returns the exit
// status: 0 on success, 1 when an experiment fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: all, or one of "+strings.Join(experimentNames(), " "))
	full := fs.Bool("full", false, "paper-scale inputs (§10.1); slow")
	seed := fs.Int64("seed", 1, "workload seed")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address while running")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	selected := registry
	if *exp != "all" {
		selected = nil
		for _, e := range registry {
			if e.name == *exp {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "lpmbench: unknown experiment %q\n", *exp)
			return 2
		}
	}

	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, serve.MetricsHandler(telemetry.Default)); err != nil {
				fmt.Fprintf(stderr, "lpmbench: metrics listener: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "lpmbench: metrics on http://%s/metrics\n", *metricsAddr)
	}

	sc, scaleName := experiments.QuickScale(), "quick"
	if *full {
		sc, scaleName = experiments.PaperScale(), "paper"
	}
	sc.Seed = *seed

	fmt.Fprintf(stdout, "# lpmbench scale=%s seed=%d\n\n", scaleName, *seed)
	for _, e := range selected {
		start := time.Now()
		tab, err := e.run(sc)
		if err != nil {
			fmt.Fprintf(stderr, "lpmbench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprint(stdout, tab.Render())
		fmt.Fprintf(stdout, "(%s in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
