// Command lpmgen generates synthetic rule-sets from the calibrated workload
// families (DESIGN.md §2 substitutions for the paper's RIPE / RouteViews /
// Stanford / Snort inputs).
//
// Usage:
//
//	lpmgen -profile ripe -rules 870000 -out rules.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"neurolpm/internal/workload"
)

func main() {
	profile := flag.String("profile", "ripe", "workload family: ripe routeviews stanford snort ipv6")
	nRules := flag.Int("rules", 10000, "number of rules")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "rule-set output file (default stdout)")
	flag.Parse()

	p, ok := workload.Profiles()[*profile]
	if !ok {
		names := make([]string, 0)
		for n := range workload.Profiles() {
			names = append(names, n)
		}
		sort.Strings(names)
		fatal("unknown profile %q (have %v)", *profile, names)
	}
	rs, err := workload.Generate(p, *nRules, *seed)
	if err != nil {
		fatal("%v", err)
	}
	if err := writeText(*out, rs.Format()); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "lpmgen: %d rules (%d-bit, profile %s)\n", rs.Len(), rs.Width, p.Name)
}

func writeText(path, text string) error {
	if path == "" {
		_, err := os.Stdout.WriteString(text)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(text); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpmgen: "+format+"\n", args...)
	os.Exit(1)
}
