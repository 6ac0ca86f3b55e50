package experiments

import (
	"fmt"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/workload"
)

// Fig10Cell is the cache miss rate of one (family, bucket size) point.
type Fig10Cell struct {
	Family      string
	BucketBytes int
	MissRatePct float64
	Ran         bool
}

// fig10BucketBytes are the paper's x-axis points (bucket size in bytes; a
// 4-byte range bound per entry).
var fig10BucketBytes = []int{8, 16, 32, 64}

// fig10SRAM is the fixed budget shared by directory and cache.
const fig10SRAM = 2 * 1024 * 1024

// Fig10 regenerates Figure 10: NeuroLPM cache miss rate for 2MB SRAM under
// different bucket sizes. As in the paper, the cache line size equals the
// bucket size in this experiment (only).
func Fig10(sc Scale) ([]Fig10Cell, error) {
	var out []Fig10Cell
	for _, family := range routingFamilies {
		rs, err := workload.Generate(workload.Profiles()[family], sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.TraceLen, sc.Seed+6))
		if err != nil {
			return nil, err
		}
		for _, bb := range fig10BucketBytes {
			cell := Fig10Cell{Family: family, BucketBytes: bb}
			cfg := sc.engineConfig()
			cfg.BucketSize = bb / 4
			eng, err := core.Build(rs, cfg)
			if err != nil {
				return nil, err
			}
			cacheBytes := fig10SRAM - eng.SRAMUsage().Total
			if cacheBytes > 0 {
				cache, err := cachesim.New(cachesim.Config{
					SizeBytes: cacheBytes, LineSize: bb, Ways: 2,
				})
				if err == nil {
					for _, k := range trace {
						eng.LookupMem(k, cache)
					}
					cell.Ran = true
					cell.MissRatePct = 100 * cache.Stats().MissRate()
				}
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// Fig10Table renders the grid.
func Fig10Table(cells []Fig10Cell) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 10: NeuroLPM cache miss rate, %dMB SRAM, line size = bucket size", fig10SRAM/(1024*1024)),
		Header: []string{"family", "bucket [B]", "miss rate [%]"},
		Notes:  []string{"paper: miss rate improves up to 32B buckets, then grows again (lost spatial locality)"},
	}
	for _, c := range cells {
		row := []string{c.Family, fi(c.BucketBytes)}
		if c.Ran {
			row = append(row, f2(c.MissRatePct))
		} else {
			row = append(row, "-")
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
