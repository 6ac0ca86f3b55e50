package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"neurolpm/internal/experiments"
)

// guardTolerance is the allowed relative regression on a speedup ratio
// before the guard fails: measured < baseline × (1 − 3%) is a regression.
// Ratios (compiled/reference, cached/uncached) cancel machine-speed drift,
// so a tight bound holds where absolute Mlookups/s would flake.
const guardTolerance = 0.03

// overheadBudget is the allowed cost of a plane that is in the path but off
// (or sampling at its default stride): its interleaved A/B rate ratio must
// stay ≥ 1 − 10%. These rows have no baseline file entry; their base is 1.
const overheadBudget = 0.10

// baselineSpeedups extracts {row key → speedup} for one experiment from a
// BENCH_*.json file, accepting both the -compact shape (pipe-joined row
// strings) and the full shape (string-slice rows). keyCols and speedupCol
// index into the row's columns.
func baselineSpeedups(path, exp string, keyCols []int, speedupCol int) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report struct {
		Experiments []struct {
			Name string          `json:"name"`
			Rows json.RawMessage `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, e := range report.Experiments {
		if e.Name != exp {
			continue
		}
		var rows [][]string
		var compact []string
		if err := json.Unmarshal(e.Rows, &compact); err == nil {
			for _, r := range compact {
				rows = append(rows, strings.Split(r, " | "))
			}
		} else if err := json.Unmarshal(e.Rows, &rows); err != nil {
			return nil, fmt.Errorf("%s: experiment %q rows: %w", path, exp, err)
		}
		out := make(map[string]float64, len(rows))
		for _, row := range rows {
			if speedupCol >= len(row) {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(row[speedupCol]), 64)
			if err != nil {
				return nil, fmt.Errorf("%s: experiment %q speedup %q: %w", path, exp, row[speedupCol], err)
			}
			out[guardKey(row, keyCols)] = v
		}
		return out, nil
	}
	return nil, fmt.Errorf("%s: no experiment %q in baseline", path, exp)
}

func guardKey(row []string, keyCols []int) string {
	parts := make([]string, 0, len(keyCols))
	for _, c := range keyCols {
		parts = append(parts, strings.TrimSpace(row[c]))
	}
	return strings.Join(parts, "/")
}

// guardRow is one measured-vs-baseline comparison.
type guardRow struct {
	exp, key       string
	base, measured float64
	mismatches     int
	tol            float64 // allowed relative shortfall against base
}

func (g guardRow) verdict() (string, bool) {
	if g.mismatches != 0 {
		return fmt.Sprintf("FAIL (%d oracle mismatches)", g.mismatches), false
	}
	if g.base == 0 {
		return "skip (no baseline row)", true
	}
	rel := g.measured/g.base - 1
	if rel < -g.tol {
		return fmt.Sprintf("FAIL (%.1f%% regression)", -100*rel), false
	}
	return fmt.Sprintf("ok (%+.1f%%)", 100*rel), true
}

// guardAttempts bounds the retry loop: a row passes the moment any attempt
// lands within tolerance (each row keeps its best attempt), so only a
// regression that reproduces across every attempt — a real one, not a noisy
// co-tenant — fails the guard. Oracle mismatches fail immediately.
const guardAttempts = 3

// guardMeasure runs E23 + E25 + E28 + E29 and the overhead pairs once and
// returns one guardRow per table row. E28 contributes two ratio sets
// (fast-tier saving, p99 headroom)
// from its deterministic rows only — the sketch row rides the 1:64 hotness
// sampling phase and would flake any fixed tolerance. E29 contributes its
// deterministic bytes-per-query ratio; the measured wire rows' oracle
// mismatches and request errors fold into that row, so a wire plane serving
// a single wrong answer fails the guard even though its throughput is not
// pinned.
func guardMeasure(sc experiments.Scale, compBase, cacheBase, tierFastBase, tierP99Base, wireBytesBase map[string]float64) ([]guardRow, error) {
	var rows []guardRow
	comp, err := experiments.CompiledSpeedup(sc)
	if err != nil {
		return nil, fmt.Errorf("E23: %w", err)
	}
	for _, c := range comp {
		key := fmt.Sprintf("%s/%d", c.Path, c.BatchSize)
		rows = append(rows, guardRow{"compiled", key, compBase[key], c.Speedup, c.Mismatches, guardTolerance})
	}
	cache, err := experiments.CacheHotKey(sc)
	if err != nil {
		return nil, fmt.Errorf("E25: %w", err)
	}
	for _, c := range cache {
		key := fmt.Sprintf("%s/%d", c.Workload, c.CacheKB)
		rows = append(rows, guardRow{"cache", key, cacheBase[key], c.Speedup, c.Mismatches, guardTolerance})
	}
	tiered, err := experiments.Tiered(sc)
	if err != nil {
		return nil, fmt.Errorf("E28: %w", err)
	}
	for _, c := range tiered {
		if !c.Deterministic {
			continue
		}
		rows = append(rows,
			guardRow{"tier-fast", c.Config, tierFastBase[c.Config], c.FastSavingX, c.Mismatches, guardTolerance},
			guardRow{"tier-p99", c.Config, tierP99Base[c.Config], c.HeadroomX, c.Mismatches, guardTolerance})
	}
	wireCells, err := experiments.Wire(sc)
	if err != nil {
		return nil, fmt.Errorf("E29: %w", err)
	}
	wireBad := 0
	for _, c := range wireCells {
		wireBad += c.Mismatches + c.Errors
	}
	for _, c := range wireCells {
		if !c.Deterministic {
			continue
		}
		rows = append(rows, guardRow{"wire-bytes", c.Config, wireBytesBase[c.Config], c.VsHTTPX, wireBad, guardTolerance})
	}
	overheads, err := experiments.Overheads(sc)
	if err != nil {
		return nil, fmt.Errorf("overheads: %w", err)
	}
	for _, c := range overheads {
		rows = append(rows, guardRow{"overhead", c.Name, 1, c.Ratio, 0, overheadBudget})
	}
	return rows, nil
}

// runGuard reruns E23, E25, E28 and E29 at quick scale through the unified
// plane-stack entry points and compares every ratio against the baseline.
func runGuard(sc experiments.Scale, path string) error {
	compBase, err := baselineSpeedups(path, "compiled", []int{0, 1}, 3)
	if err != nil {
		return err
	}
	cacheBase, err := baselineSpeedups(path, "cache", []int{0, 1}, 3)
	if err != nil {
		return err
	}
	// E28 columns: 3 = fast saving x, 6 = p99 headroom x (see TieredTable).
	tierFastBase, err := baselineSpeedups(path, "tiered", []int{0}, 3)
	if err != nil {
		return err
	}
	tierP99Base, err := baselineSpeedups(path, "tiered", []int{0}, 6)
	if err != nil {
		return err
	}
	// E29 columns: 5 = vs http x (the deterministic bytes/query ratio row).
	wireBytesBase, err := baselineSpeedups(path, "wire", []int{0}, 5)
	if err != nil {
		return err
	}

	fmt.Printf("# unified-stack bench guard vs %s (tolerance %.0f%%, up to %d attempts)\n",
		path, 100*guardTolerance, guardAttempts)
	var best []guardRow
	for attempt := 1; attempt <= guardAttempts; attempt++ {
		rows, err := guardMeasure(sc, compBase, cacheBase, tierFastBase, tierP99Base, wireBytesBase)
		if err != nil {
			return err
		}
		if best == nil {
			best = rows
		} else {
			for i := range rows {
				if rows[i].mismatches > best[i].mismatches {
					best[i].mismatches = rows[i].mismatches // correctness never retries away
				}
				if rows[i].measured > best[i].measured {
					best[i].measured = rows[i].measured
				}
			}
		}
		failed := 0
		for _, g := range best {
			if _, ok := g.verdict(); !ok {
				failed++
			}
		}
		if failed == 0 {
			break
		}
		if attempt < guardAttempts {
			fmt.Printf("attempt %d: %d rows outside tolerance, retrying\n", attempt, failed)
		}
	}

	failed := 0
	for _, g := range best {
		verdict, ok := g.verdict()
		if !ok {
			failed++
		}
		fmt.Printf("%-9s %-28s baseline %5.2f  measured %5.2f  %s\n", g.exp, g.key, g.base, g.measured, verdict)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d ratios fell beyond their tolerance (%.0f%%; overhead rows %.0f%%) in all %d attempts (or mismatched the oracle)",
			failed, len(best), 100*guardTolerance, 100*overheadBudget, guardAttempts)
	}
	fmt.Printf("guard: all %d ratios within tolerance (%.0f%% of baseline; overhead rows %.0f%% of 1.00)\n",
		len(best), 100*guardTolerance, 100*overheadBudget)
	return nil
}
