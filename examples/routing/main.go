// Routing: a data-center-scale forwarding example (Apps 1–2, §3.1). It
// builds a bucketized engine over a synthetic BGP-like table, replays a
// locality trace while measuring DRAM traffic through an emulated cache,
// runs the three §6.5 update paths, and repeats the exercise with 128-bit
// IPv6 rules to show the bit-width scaling of §6.4.
package main

import (
	"fmt"
	"log"
	"time"

	"neurolpm"
	"neurolpm/internal/cachesim"
	"neurolpm/internal/workload"
)

func main() {
	// ~100K-rule BGP-like table (use lpmgen for the full 870K-rule set).
	rs, err := workload.Generate(workload.RIPE(), 100000, 7)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	engine, err := neurolpm.Build(rs, neurolpm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	usage := engine.SRAMUsage()
	fmt.Printf("IPv4: %d rules -> %d ranges; trained in %v\n", rs.Len(), engine.Ranges().Len(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("      SRAM %d KB (model %d B + directory %d KB), DRAM %d KB\n",
		usage.Total/1024, usage.Model, usage.RQArray/1024, engine.DRAMFootprint()/1024)

	// Replay a CAIDA-like trace through a 2MB SRAM budget: whatever the
	// static structures do not use becomes a DRAM cache.
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(1000000, 8))
	if err != nil {
		log.Fatal(err)
	}
	cache, err := cachesim.New(cachesim.DefaultConfig(2*1024*1024 - usage.Total))
	if err != nil {
		log.Fatal(err)
	}
	matched := 0
	start = time.Now()
	for _, k := range trace {
		if tr := engine.LookupMem(k, cache); tr.Matched {
			matched++
		}
	}
	elapsed := time.Since(start)
	st := cache.Stats()
	fmt.Printf("      %d queries in %v (%.1f Mq/s sw), %.1f%% matched\n",
		len(trace), elapsed.Round(time.Millisecond), float64(len(trace))/elapsed.Seconds()/1e6,
		100*float64(matched)/float64(len(trace)))
	fmt.Printf("      DRAM: %.4f misses/query, %.2f bytes/query (worst case: %d access)\n",
		float64(st.Misses)/float64(len(trace)), float64(st.Bytes)/float64(len(trace)),
		engine.WorstCaseDRAMAccesses())

	// Updates (§6.5): action modification and deletion need no retraining;
	// insertion rebuilds and retrains, and the new engine is swapped in.
	r0 := rs.Rules[0]
	start = time.Now()
	if err := engine.ModifyAction(r0.Prefix, r0.Len, 63); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update: modify-action in %v\n", time.Since(start).Round(time.Microsecond))
	r1 := rs.Rules[1]
	start = time.Now()
	if err := engine.Delete(r1.Prefix, r1.Len); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update: delete in %v\n", time.Since(start).Round(time.Microsecond))

	batch, err := workload.Generate(workload.RIPE(), 2000, 99)
	if err != nil {
		log.Fatal(err)
	}
	var fresh []neurolpm.Rule
	for _, r := range batch.Rules {
		if rs.Find(r.Prefix, r.Len) < 0 {
			fresh = append(fresh, r)
		}
	}
	start = time.Now()
	engine2, err := engine.Rebuild(fresh...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update: insert %d rules via retrain in %v (old engine stays live until swap)\n",
		len(fresh), time.Since(start).Round(time.Millisecond))
	_ = engine2

	// IPv6: the same engine architecture at 128 bits — only the arithmetic
	// widens; the number of memory accesses per query is unchanged (§6.4).
	rs6, err := workload.Generate(workload.IPv6(), 20000, 11)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	engine6, err := neurolpm.Build(rs6, neurolpm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IPv6: %d rules (128-bit) trained in %v; worst-case DRAM accesses still %d\n",
		rs6.Len(), time.Since(start).Round(time.Millisecond), engine6.WorstCaseDRAMAccesses())
}
