package experiments

import (
	"strings"
	"testing"

	"neurolpm/internal/rqrmi"
)

// testScale is small enough for CI but large enough that the qualitative
// shapes (who wins, monotone trends) hold.
func testScale() Scale {
	m := rqrmi.DefaultConfig()
	m.StageWidths = []int{1, 2, 8}
	return Scale{
		Rules: map[string]int{
			"ripe": 9000, "routeviews": 9000, "stanford": 5000,
			"snort": 5000, "ipv6": 2500,
		},
		TraceLen:   60000,
		HWTraceLen: 6000,
		Model:      m,
		Seed:       1,
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	s := tab.Render()
	for _, want := range []string{"demo", "333", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestFig2(t *testing.T) {
	res, err := Fig2(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutingTop != 24 {
		t.Errorf("routing mode /%d, want /24", res.RoutingTop)
	}
	if res.StringSpan < 30 {
		t.Errorf("string lengths span %d, want broad (>30)", res.StringSpan)
	}
	if tab := res.Table(); len(tab.Rows) == 0 {
		t.Error("empty table")
	}
}

func TestFig6a(t *testing.T) {
	pts := Fig6a(1)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	byBanks := map[int][]Fig6aPoint{}
	for _, p := range pts {
		byBanks[p.Banks] = append(byBanks[p.Banks], p)
		if diff := p.Analytical - p.Simulated; diff > 0.6 || diff < -0.6 {
			t.Errorf("banks=%d fsms=%d: analytic %.2f vs sim %.2f", p.Banks, p.FSMs, p.Analytical, p.Simulated)
		}
	}
	// More FSMs never reduce analytic throughput; more banks help at high FSMs.
	for banks, series := range byBanks {
		for i := 1; i < len(series); i++ {
			if series[i].Analytical < series[i-1].Analytical {
				t.Fatalf("banks=%d: analytic curve not monotone", banks)
			}
		}
	}
	if Fig6aTable(pts) == nil {
		t.Fatal("nil table")
	}
}

func TestFig6b(t *testing.T) {
	rows, err := Fig6b(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Errorf("log2e=%d: throughput %g", r.TargetLog2E, r.Throughput)
		}
		if r.TrainParallel <= 0 || r.TrainSequential <= 0 {
			t.Errorf("log2e=%d: missing timings", r.TargetLog2E)
		}
	}
	// The loosest target must not train slower than the tightest (the whole
	// point of the tradeoff).
	if rows[2].TrainSequential > rows[0].TrainSequential*3/2 {
		t.Errorf("loose target trained slower: %v vs %v", rows[2].TrainSequential, rows[0].TrainSequential)
	}
	if Fig6bTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestFig7(t *testing.T) {
	sc := testScale()
	cells, err := Fig7(sc)
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]Fig7Cell{}
	for _, c := range cells {
		index[c.Family+"/"+fi(c.SRAMBytes/(1024*1024))+"/"+c.Algorithm] = c
	}
	for _, fam := range RoutingFamilies {
		// SAIL cannot run below its ~2.3MB static allocation.
		if index[fam+"/1/sail"].Ran || index[fam+"/2/sail"].Ran {
			t.Errorf("%s: SAIL ran under 2.3MB SRAM", fam)
		}
		if !index[fam+"/4/sail"].Ran {
			t.Errorf("%s: SAIL did not run at 4MB", fam)
		}
		for _, mb := range []string{"1", "2", "4"} {
			n := index[fam+"/"+mb+"/neurolpm"]
			tb := index[fam+"/"+mb+"/treebitmap"]
			if !n.Ran || !tb.Ran {
				t.Fatalf("%s/%sMB: neurolpm or treebitmap missing", fam, mb)
			}
			// The headline claim: NeuroLPM needs less DRAM bandwidth.
			if n.BytesPerQuery > tb.BytesPerQuery {
				t.Errorf("%s/%sMB: neurolpm %.2f B/q worse than treebitmap %.2f B/q",
					fam, mb, n.BytesPerQuery, tb.BytesPerQuery)
			}
		}
		// NeuroLPM also beats SAIL where SAIL runs.
		n4, s4 := index[fam+"/4/neurolpm"], index[fam+"/4/sail"]
		if n4.BytesPerQuery > s4.BytesPerQuery {
			t.Errorf("%s/4MB: neurolpm %.2f B/q worse than sail %.2f B/q",
				fam, n4.BytesPerQuery, s4.BytesPerQuery)
		}
	}
	if Fig7Table(cells) == nil {
		t.Fatal("nil table")
	}
}

func TestFig8(t *testing.T) {
	sc := testScale()
	rows, err := Fig8(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(RoutingFamilies)*len(Fig8Configs) {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]Fig8Row{}
	for _, r := range rows {
		if r.Throughput <= 0 || r.Throughput > 2 {
			t.Errorf("%s %s: throughput %.3f", r.Family, r.Config, r.Throughput)
		}
		byKey[r.Family+r.Config.String()] = r
	}
	for _, fam := range RoutingFamilies {
		small := byKey[fam+"1-16:16"]
		big := byKey[fam+"2-32:96"]
		if big.Throughput <= small.Throughput {
			t.Errorf("%s: flagship config not faster (%.3f vs %.3f)", fam, big.Throughput, small.Throughput)
		}
	}
	if Fig8Table(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestFig9(t *testing.T) {
	rows, err := Fig9(testScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for i := 1; i < len(r.Latencies); i++ {
			if r.Latencies[i] < r.Latencies[i-1] {
				t.Fatalf("%s %s: CDF not monotone: %v", r.Family, r.Config, r.Latencies)
			}
		}
		if r.Latencies[0] < 22 {
			t.Fatalf("%s %s: p10 below inference latency", r.Family, r.Config)
		}
	}
	if Fig9Table(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestFig10(t *testing.T) {
	cells, err := Fig10(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(RoutingFamilies)*len(Fig10BucketBytes) {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if !c.Ran {
			t.Errorf("%s/%dB did not run", c.Family, c.BucketBytes)
			continue
		}
		if c.MissRatePct < 0 || c.MissRatePct > 100 {
			t.Errorf("%s/%dB: miss rate %.2f", c.Family, c.BucketBytes, c.MissRatePct)
		}
	}
	if Fig10Table(cells) == nil {
		t.Fatal("nil table")
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The fitted model must reproduce the paper's published counts closely.
	if small := rows[0]; small.LUT < 9000 || small.LUT > 11500 {
		t.Errorf("16:48 LUT = %d, paper 10165", small.LUT)
	}
	if big := rows[1]; big.LUT < 75000 || big.LUT > 90000 {
		t.Errorf("32:96 LUT = %d, paper 81862", big.LUT)
	}
	if rows[0].DSP != 30 || rows[1].DSP != 60 || rows[2].DSP != 0 {
		t.Errorf("DSP counts wrong: %d/%d/%d", rows[0].DSP, rows[1].DSP, rows[2].DSP)
	}
	// SAIL's BRAM demand dwarfs NeuroLPM's.
	if rows[2].BRAMBytes < 2*rows[0].BRAMBytes {
		t.Errorf("SAIL BRAM %d not ≫ NeuroLPM %d", rows[2].BRAMBytes, rows[0].BRAMBytes)
	}
	if Table1Table(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestExpansion(t *testing.T) {
	rows, err := Expansion(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ExpansionPct < 0 || r.ExpansionPct > 100 {
			t.Errorf("%s: expansion %.1f%% outside the 2x bound", r.Family, r.ExpansionPct)
		}
	}
	if ExpansionTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestWorstCase(t *testing.T) {
	rows, err := WorstCase(testScale())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"neurolpm": 1, "sail": 2, "treebitmap": 3}
	for _, r := range rows {
		if r.Bound != want[r.Algorithm] {
			t.Errorf("%s bound = %d, want %d", r.Algorithm, r.Bound, want[r.Algorithm])
		}
		if r.Observed > r.Bound {
			t.Errorf("%s observed %d exceeds bound %d", r.Algorithm, r.Observed, r.Bound)
		}
	}
	if WorstCaseTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestVsBinarySearch(t *testing.T) {
	rows, err := VsBinarySearch(testScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Reduction < 1.2 {
			t.Errorf("%s: reduction %.2fx; RQRMI should beat full binary search", r.Family, r.Reduction)
		}
	}
	if VsBinarySearchTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestBitwidth(t *testing.T) {
	rows, err := Bitwidth(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	prevTrie := 0
	for _, r := range rows {
		if r.NeuroDRAM != 1 {
			t.Errorf("%s: NeuroLPM worst-case DRAM %d, want 1 at every width", r.Family, r.NeuroDRAM)
		}
		if r.TrieDRAM <= prevTrie {
			t.Errorf("%s: trie accesses did not grow with width", r.Family)
		}
		prevTrie = r.TrieDRAM
	}
	if BitwidthTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestUpdates(t *testing.T) {
	rows, err := Updates(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if UpdatesTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestScaling(t *testing.T) {
	rows, err := Scaling(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].TputVsBase != 1 || rows[0].TrainVsBase != 1 {
		t.Error("base row not normalized to 1x")
	}
	if rows[1].Rules != rows[0].Rules*45/10 {
		t.Errorf("big rule count %d", rows[1].Rules)
	}
	if ScalingTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestModelSize(t *testing.T) {
	sc := testScale()
	rows, err := ModelSize(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.AvgProbes <= 0 || r.MaxErr < 0 || r.ModelBytes <= 0 {
			t.Errorf("row %+v has nonsense values", r)
		}
	}
	// Model footprint grows with the final stage.
	if rows[4].ModelBytes <= rows[0].ModelBytes {
		t.Error("model bytes did not grow with submodels")
	}
	if ModelSizeTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestTSSSensitivity(t *testing.T) {
	rows, err := TSSSensitivity(testScale())
	if err != nil {
		t.Fatal(err)
	}
	byFam := map[string]TSSRow{}
	for _, r := range rows {
		byFam[r.Family] = r
	}
	if byFam["snort"].Tables <= byFam["ripe"].Tables {
		t.Errorf("string matching (%d tables) should need more than routing (%d)",
			byFam["snort"].Tables, byFam["ripe"].Tables)
	}
	if byFam["snort"].AvgProbes <= byFam["ripe"].AvgProbes {
		t.Error("string matching should probe more tables per query")
	}
	if TSSSensitivityTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestDRAMPipeline(t *testing.T) {
	rows, err := DRAMPipeline(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// More DRAM bandwidth must not hurt throughput or stalls.
	for i := 1; i < len(rows); i++ {
		if rows[i].Throughput+1e-9 < rows[i-1].Throughput {
			t.Errorf("issue=%d throughput regressed", rows[i].IssuePerCycle)
		}
		if rows[i].StallCycles > rows[i-1].StallCycles {
			t.Errorf("issue=%d stalls grew", rows[i].IssuePerCycle)
		}
	}
	if rows[0].Throughput > 1.0 {
		t.Error("1 fetch/cycle cannot exceed 1 query/cycle")
	}
	if DRAMPipelineTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestReplicas(t *testing.T) {
	r, err := Replicas(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.Replicas < 2 {
		t.Errorf("only %d replicas fit in SAIL's budget; paper fits 4", r.Replicas)
	}
	if r.AggregateMpps <= r.SingleMpps {
		t.Error("aggregate throughput did not scale with replicas")
	}
	if r.AggregateMpps <= r.SAILMpps {
		t.Errorf("aggregate %.0f Mpps does not beat SAIL's %.0f", r.AggregateMpps, r.SAILMpps)
	}
	if r.SpareBRAMForCache < 0 {
		t.Error("negative spare BRAM")
	}
	if ReplicasTable(r) == nil {
		t.Fatal("nil table")
	}
}

func TestDesignSpace(t *testing.T) {
	rows, err := DesignSpace(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(RoutingFamilies) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.StagedThroughput <= 0 || r.FSMThroughput <= 0 {
			t.Errorf("%s: zero throughput", r.Family)
		}
		if r.FSMStages < 1 {
			t.Errorf("%s: stage depth %d", r.Family, r.FSMStages)
		}
	}
	if DesignSpaceTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestWorstCaseBandwidth(t *testing.T) {
	rows := WorstCaseBandwidth()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.LineRateGbps == 200 {
			// The paper's §10.1 figure: 88 Gbps worst case at 200 Gbps.
			if r.WorstCaseGbps < 85 || r.WorstCaseGbps > 92 {
				t.Fatalf("worst-case at 200G = %.1f Gbps, paper says ~88", r.WorstCaseGbps)
			}
		}
	}
	if WorstCaseBandwidthTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestEMExpansion(t *testing.T) {
	rows, err := EMExpansion(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(RoutingFamilies)*3 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]EMRow{}
	for _, r := range rows {
		byKey[r.Family+fi(r.Threshold)] = r
		if r.EMEntries < uint64(r.EMRules) {
			t.Errorf("%s/%d: fewer entries than rules", r.Family, r.Threshold)
		}
	}
	// Lower thresholds offload more rules and blow up faster (§3.3's
	// exponential growth in wildcard bits).
	for _, fam := range RoutingFamilies {
		if byKey[fam+"24"].EMEntries <= byKey[fam+"32"].EMEntries {
			t.Errorf("%s: /24 threshold did not dominate /32", fam)
		}
	}
	if EMExpansionTable(rows) == nil {
		t.Fatal("nil table")
	}
}

func TestFaults(t *testing.T) {
	cells, err := FaultStorm(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("%d phases, want 3", len(cells))
	}
	byPhase := map[string]FaultsCell{}
	for _, c := range cells {
		byPhase[c.Phase] = c
		if c.Mismatches != 0 {
			t.Errorf("%s: %d oracle mismatches — degraded mode served wrong answers", c.Phase, c.Mismatches)
		}
		if c.P99ns < c.P50ns {
			t.Errorf("%s: p99 (%.0f) below p50 (%.0f)", c.Phase, c.P99ns, c.P50ns)
		}
	}
	if byPhase["storm"].Failures == 0 {
		t.Error("storm phase recorded no commit failures")
	}
	if got := byPhase["recovery"].Pending; got != 0 {
		t.Errorf("recovery left %d rules pending", got)
	}
	if FaultsTable(cells) == nil {
		t.Fatal("nil table")
	}
}

func TestCacheHotKey(t *testing.T) {
	cells, err := CacheHotKey(testScale())
	if err != nil {
		t.Fatal(err)
	}
	// 3 hot rows (uncached + 2 sizes) + 2 mid + 2 uniform + 1 storm.
	if len(cells) != 8 {
		t.Fatalf("%d rows, want 8", len(cells))
	}
	for _, c := range cells {
		if c.Mismatches != 0 {
			t.Errorf("%s @%dKB: %d oracle mismatches — the cache served a wrong answer", c.Workload, c.CacheKB, c.Mismatches)
		}
		if c.MLookupsPS <= 0 {
			t.Errorf("%s @%dKB: nonpositive rate %f", c.Workload, c.CacheKB, c.MLookupsPS)
		}
	}
	// The hot-key regime is the point of the plane: the cached rows must hit
	// often. (Throughput ratios are asserted only at lpmbench scale — CI
	// machines are too noisy for a speedup bound at testScale.)
	if hit := cells[1].HitPct; hit < 50 {
		t.Errorf("zipf/loc0.9 @%dKB hit rate %.1f%%, want well above 50%%", cells[1].CacheKB, hit)
	}
	// Storm row: delta overlay + failing commits, still zero mismatches and
	// a live hit rate.
	storm := cells[len(cells)-1]
	if storm.HitPct <= 0 {
		t.Errorf("storm row hit rate %.1f%%, want > 0", storm.HitPct)
	}
	if CacheHotKeyTable(cells) == nil {
		t.Fatal("nil table")
	}
}

func TestTiered(t *testing.T) {
	cells, err := Tiered(testScale())
	if err != nil {
		t.Fatal(err)
	}
	// all-hot + tiered + tiered sketch + storm.
	if len(cells) != 4 {
		t.Fatalf("%d rows, want 4", len(cells))
	}
	byConfig := map[string]TieredCell{}
	for _, c := range cells {
		byConfig[c.Config] = c
		if c.Mismatches != 0 {
			t.Errorf("%s: %d oracle mismatches — a tier migration corrupted an answer", c.Config, c.Mismatches)
		}
	}
	// The seed-reproducible rows, pinned exactly (analytic cycle model and
	// burst-driven placement: no timing, so no tolerance). The baseline and
	// the storm row are 1 by construction.
	for _, name := range []string{"all-hot", "tiered +storm"} {
		if c := byConfig[name]; c.FastSavingX != 1 || c.HeadroomX != 1 {
			t.Errorf("%s: fast saving %v, p99 headroom %v, want exactly 1 and 1", name, c.FastSavingX, c.HeadroomX)
		}
	}
	// The deterministic regime's contract: one warm-up pass + one burst
	// rebalance leaves the measured pass entirely in the fast tier, at full
	// p99 headroom, on a smaller footprint.
	hot, det := byConfig["all-hot"], byConfig["tiered"]
	if det.ColdPct != 0 {
		t.Errorf("deterministic tiered row ran %.1f%% cold, want 0", det.ColdPct)
	}
	if det.HeadroomX != 1 {
		t.Errorf("deterministic tiered row p99 headroom %.2f, want exactly 1", det.HeadroomX)
	}
	// FastMiB is tier.Stats.FastBytes over 2^20, which float64 divides out
	// exactly: the saving is the two rows' footprint ratio, bit for bit.
	if want := hot.FastMiB / det.FastMiB; det.FastSavingX != want || det.FastSavingX <= 1 {
		t.Errorf("deterministic tiered row fast saving %v, want the footprint ratio %v (> 1)", det.FastSavingX, want)
	}
	if det.Promotions == 0 {
		t.Error("deterministic tiered row promoted nothing")
	}
	// The sketch regime must actually exercise both migration directions.
	sk := byConfig["tiered sketch"]
	if sk.Promotions == 0 || sk.Demotions == 0 {
		t.Errorf("sketch row promotions=%d demotions=%d, want both > 0", sk.Promotions, sk.Demotions)
	}
	if byConfig["tiered +storm"].Promotions == 0 {
		t.Error("storm row promoted nothing mid-storm")
	}
	if TieredTable(cells) == nil {
		t.Fatal("nil table")
	}
}
