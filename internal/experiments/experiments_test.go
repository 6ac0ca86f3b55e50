package experiments

import (
	"flag"
	"os"
	"path/filepath"
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

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the tables computed")

// checkGolden holds the rendering of a deterministic table at testScale to
// testdata/<name>.golden byte for byte, so a change meant to move no figure
// shows that it moved none; -update rewrites the file.
func checkGolden(t *testing.T, name string, tab *Table) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	got := tab.Render()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s moved (go test -update rewrites it)\ngot:\n%s\nwant:\n%s", path, got, want)
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
	checkGolden(t, "fig2", res.Table())
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
	checkGolden(t, "fig6a", Fig6aTable(pts))
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
	for _, fam := range routingFamilies {
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
	checkGolden(t, "fig7", Fig7Table(cells))
}

func TestFig8(t *testing.T) {
	sc := testScale()
	rows, err := Fig8(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(routingFamilies)*len(fig8Configs) {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]Fig8Row{}
	for _, r := range rows {
		if r.Throughput <= 0 || r.Throughput > 2 {
			t.Errorf("%s %s: throughput %.3f", r.Family, r.Config, r.Throughput)
		}
		byKey[r.Family+r.Config.String()] = r
	}
	for _, fam := range routingFamilies {
		small := byKey[fam+"1-16:16"]
		big := byKey[fam+"2-32:96"]
		if big.Throughput <= small.Throughput {
			t.Errorf("%s: flagship config not faster (%.3f vs %.3f)", fam, big.Throughput, small.Throughput)
		}
	}
	checkGolden(t, "fig8", Fig8Table(rows))
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
	checkGolden(t, "fig9", Fig9Table(rows))
}

func TestHeadline(t *testing.T) {
	rows, err := Headline(testScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "headline", HeadlineTable(rows))
}

func TestFig10(t *testing.T) {
	cells, err := Fig10(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(routingFamilies)*len(fig10BucketBytes) {
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
	checkGolden(t, "fig10", Fig10Table(cells))
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
	checkGolden(t, "table1", Table1Table(rows))
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
	checkGolden(t, "expansion", ExpansionTable(rows))
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
	checkGolden(t, "worstcase", WorstCaseTable(rows))
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
	checkGolden(t, "binsearch", VsBinarySearchTable(rows))
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
	checkGolden(t, "bitwidth", BitwidthTable(rows))
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
	checkGolden(t, "tss", TSSSensitivityTable(rows))
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
	checkGolden(t, "replicas", ReplicasTable(r))
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
	checkGolden(t, "worstbw", WorstCaseBandwidthTable(rows))
}
