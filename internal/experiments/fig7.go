package experiments

import (
	"fmt"

	"neurolpm/internal/baseline/sail"
	"neurolpm/internal/baseline/treebitmap"
	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/workload"
)

// Fig7Cell is one (family, SRAM size, algorithm) measurement.
type Fig7Cell struct {
	Family    string
	SRAMBytes int
	Algorithm string
	Ran       bool // false when static structures exceed the SRAM budget
	// Per-query averages over the replayed trace.
	DRAMAccesses  float64
	BytesPerQuery float64
	MissRatePct   float64 // misses per cache access, percent
	GbpsAt200Mpps float64 // bandwidth at 200M queries/s (≈§7's 200Gbps line rate)
}

// fig7SRAMSizesMB are the paper's x-axis points.
var fig7SRAMSizesMB = []int{1, 2, 4}

// Fig7 regenerates Figure 7 (average DRAM bandwidth per query vs SRAM size)
// using the §10.2 methodology: a 2-way LRU cache with 32-byte lines in
// front of each algorithm's DRAM-resident structures; static SRAM residents
// shrink the effective cache.
func Fig7(sc Scale) ([]Fig7Cell, error) {
	var out []Fig7Cell
	for _, family := range routingFamilies {
		rs, err := workload.Generate(workload.Profiles()[family], sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.TraceLen, sc.Seed+2))
		if err != nil {
			return nil, err
		}

		nlpm, err := core.Build(rs, sc.engineConfig())
		if err != nil {
			return nil, err
		}
		tbm, err := treebitmap.Build(rs)
		if err != nil {
			return nil, err
		}
		sl, err := sail.Build(rs)
		if err != nil {
			return nil, err
		}

		for _, mb := range fig7SRAMSizesMB {
			sram := mb * 1024 * 1024

			// NeuroLPM: model + bucket directory are static.
			cell := Fig7Cell{Family: family, SRAMBytes: sram, Algorithm: "neurolpm"}
			if cacheBytes := sram - nlpm.SRAMUsage().Total; cacheBytes > 0 {
				cache, err := cachesim.New(cachesim.DefaultConfig(cacheBytes))
				if err == nil {
					for _, k := range trace {
						nlpm.LookupMem(k, cache)
					}
					cell.Ran = true
					fill(&cell, cache.Stats(), len(trace))
				}
			}
			out = append(out, cell)

			// Tree Bitmap: only the root chunk is static.
			cell = Fig7Cell{Family: family, SRAMBytes: sram, Algorithm: "treebitmap"}
			if cacheBytes := sram - tbm.StaticSRAMBytes(); cacheBytes > 0 {
				cache, err := cachesim.New(cachesim.DefaultConfig(cacheBytes))
				if err == nil {
					for _, k := range trace {
						tbm.LookupMem(k, cache)
					}
					cell.Ran = true
					fill(&cell, cache.Stats(), len(trace))
				}
			}
			out = append(out, cell)

			// SAIL: 2.3MB static; it cannot run below ~2.4MB (paper note).
			cell = Fig7Cell{Family: family, SRAMBytes: sram, Algorithm: "sail"}
			if cacheBytes := sram - sl.StaticSRAMBytes(); cacheBytes >= 64*1024 {
				cache, err := cachesim.New(cachesim.DefaultConfig(cacheBytes))
				if err == nil {
					for _, k := range trace {
						sl.LookupMem(k, cache)
					}
					cell.Ran = true
					fill(&cell, cache.Stats(), len(trace))
				}
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

func fill(c *Fig7Cell, st cachesim.Stats, queries int) {
	q := float64(queries)
	c.DRAMAccesses = float64(st.Misses) / q
	c.BytesPerQuery = float64(st.Bytes) / q
	c.MissRatePct = 100 * st.MissRate()
	c.GbpsAt200Mpps = c.BytesPerQuery * 200e6 * 8 / 1e9
}

// Fig7Table renders the grid.
func Fig7Table(cells []Fig7Cell) *Table {
	t := &Table{
		Title: "Figure 7: average DRAM bandwidth per query vs SRAM size (2-way LRU, 32B lines)",
		Header: []string{
			"family", "SRAM [MB]", "algorithm", "DRAM acc/query",
			"bytes/query", "Gbps @200Mq/s", "miss rate [%]",
		},
		Notes: []string{
			"'-' = static structures exceed the SRAM budget (SAIL needs ≥2.4MB)",
			"lower is better; §10.2 reports up to 5x/3x miss-rate and 4x/1.7x bandwidth reduction vs Tree Bitmap/SAIL",
		},
	}
	for _, c := range cells {
		row := []string{c.Family, fmt.Sprintf("%d", c.SRAMBytes/(1024*1024)), c.Algorithm}
		if c.Ran {
			row = append(row, f3(c.DRAMAccesses), f2(c.BytesPerQuery), f2(c.GbpsAt200Mpps), f2(c.MissRatePct))
		} else {
			row = append(row, "-", "-", "-", "-")
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
