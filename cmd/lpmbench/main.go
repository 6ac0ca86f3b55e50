// Command lpmbench regenerates the paper's tables and figures plus the
// extension experiments that are still plain tables (DESIGN.md §4 is the
// index; `lpmbench -h` lists the names). By default it runs every experiment
// at quick scale; -full switches to paper-scale inputs (§10.1 rule counts,
// 10M-query traces), which takes tens of minutes.
//
// Usage:
//
//	lpmbench [-exp name] [-full] [-seed N]
//
// lpmbench prints tables for a reader. The repository's performance record —
// the numbers one commit is compared against another on — is BENCHMARK.json
// and benchmark/, not this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"neurolpm/internal/experiments"
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
	{"fig2", tab(experiments.Fig2, (*experiments.Fig2Result).Table)},
	{"fig6a", func(sc experiments.Scale) (*experiments.Table, error) {
		return experiments.Fig6aTable(experiments.Fig6a(sc.Seed)), nil
	}},
	{"fig6b", tab(experiments.Fig6b, experiments.Fig6bTable)},
	{"fig7", tab(experiments.Fig7, experiments.Fig7Table)},
	{"fig8", tab(experiments.Fig8, experiments.Fig8Table)},
	{"fig9", tab(experiments.Fig9, experiments.Fig9Table)},
	{"fig10", tab(experiments.Fig10, experiments.Fig10Table)},
	{"table1", tab(experiments.Table1, experiments.Table1Table)},
	{"expansion", tab(experiments.Expansion, experiments.ExpansionTable)},
	{"worstcase", tab(experiments.WorstCase, experiments.WorstCaseTable)},
	{"binsearch", tab(experiments.VsBinarySearch, experiments.VsBinarySearchTable)},
	{"bitwidth", tab(experiments.Bitwidth, experiments.BitwidthTable)},
	{"updates", tab(experiments.Updates, experiments.UpdatesTable)},
	{"scaling", tab(experiments.Scaling, experiments.ScalingTable)},
	{"headline", tab(experiments.Headline, experiments.HeadlineTable)},
	{"modelsize", tab(experiments.ModelSize, experiments.ModelSizeTable)},
	{"tss", tab(experiments.TSSSensitivity, experiments.TSSSensitivityTable)},
	{"replicas", tab(experiments.Replicas, experiments.ReplicasTable)},
	{"worstbw", func(sc experiments.Scale) (*experiments.Table, error) {
		return experiments.WorstCaseBandwidthTable(experiments.WorstCaseBandwidth()), nil
	}},
	{"sharded", tab(experiments.ShardedThroughput, experiments.ShardedThroughputTable)},
	{"observe", tab(experiments.Observe, experiments.ObserveTable)},
}

// tab adapts an experiment that returns a result and an error, and the
// function that renders that result, into an experiment's run.
func tab[R any](run func(experiments.Scale) (R, error), render func(R) *experiments.Table) func(experiments.Scale) (*experiments.Table, error) {
	return func(sc experiments.Scale) (*experiments.Table, error) {
		r, err := run(sc)
		if err != nil {
			return nil, err
		}
		return render(r), nil
	}
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
