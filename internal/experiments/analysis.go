package experiments

import (
	"runtime"
	"time"

	"neurolpm/internal/baseline/binsearch"
	"neurolpm/internal/baseline/sail"
	"neurolpm/internal/baseline/treebitmap"
	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/workload"
)

// ExpansionRow is one family's LPM→range conversion overhead (§10.5).
type ExpansionRow struct {
	Family       string
	Rules        int
	Ranges       int
	ExpansionPct float64
}

// Expansion regenerates the §10.5 conversion-overhead measurement.
func Expansion(sc Scale) ([]ExpansionRow, error) {
	var out []ExpansionRow
	for _, family := range []string{"ripe", "routeviews", "stanford", "snort", "ipv6"} {
		rs, err := workload.Generate(workload.Profiles()[family], sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		arr, err := ranges.Convert(rs)
		if err != nil {
			return nil, err
		}
		st := arr.Expansion(rs.Len())
		out = append(out, ExpansionRow{
			Family: family, Rules: st.Rules, Ranges: st.Ranges,
			ExpansionPct: 100 * st.Expansion,
		})
	}
	return out, nil
}

// ExpansionTable renders the rows.
func ExpansionTable(rows []ExpansionRow) *Table {
	t := &Table{
		Title:  "§10.5: LPM-to-ranges conversion overhead",
		Header: []string{"family", "rules", "ranges", "expansion [%]"},
		Notes:  []string{"paper: 18% average, 32% worst case (Stanford); theoretical bound 100%"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Family, fi(r.Rules), fi(r.Ranges), f1(r.ExpansionPct)})
	}
	return t
}

// WorstCaseRow is one algorithm's deterministic DRAM-access bound plus the
// worst access count actually observed on an adversarial uniform trace.
type WorstCaseRow struct {
	Algorithm string
	Bound     int
	Observed  int
}

// WorstCase regenerates the §10.2 worst-case analysis on the RIPE-like set.
func WorstCase(sc Scale) ([]WorstCaseRow, error) {
	rs, err := workload.Generate(workload.RIPE(), sc.Rules["ripe"], sc.Seed)
	if err != nil {
		return nil, err
	}
	trace := workload.UniformTrace(32, sc.TraceLen/10+1, sc.Seed+7)

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
	rows := []WorstCaseRow{
		{Algorithm: "neurolpm", Bound: nlpm.WorstCaseDRAMAccesses()},
		{Algorithm: "sail", Bound: sl.WorstCaseDRAMAccesses()},
		{Algorithm: "treebitmap", Bound: tbm.WorstCaseDRAMAccesses()},
	}
	for _, k := range trace {
		u := &cachesim.Uncached{}
		nlpm.LookupMem(k, u)
		rows[0].Observed = max(rows[0].Observed, int(u.Stats().Accesses))
		u = &cachesim.Uncached{}
		sl.LookupMem(k, u)
		rows[1].Observed = max(rows[1].Observed, int(u.Stats().Accesses))
		u = &cachesim.Uncached{}
		tbm.LookupMem(k, u)
		rows[2].Observed = max(rows[2].Observed, int(u.Stats().Accesses))
	}
	return rows, nil
}

// WorstCaseTable renders the bounds.
func WorstCaseTable(rows []WorstCaseRow) *Table {
	t := &Table{
		Title:  "§10.2: worst-case DRAM accesses per query",
		Header: []string{"algorithm", "deterministic bound", "observed max (uniform trace)"},
		Notes:  []string{"paper: NeuroLPM 1, SAIL 2, Tree Bitmap 3 (dependent accesses)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Algorithm, fi(r.Bound), fi(r.Observed)})
	}
	return t
}

// BinSearchRow compares RQRMI-assisted search with a full binary search.
type BinSearchRow struct {
	Family     string
	RangeCount int
	AvgRQRMI   float64 // avg probes, model + bounded search
	AvgFull    float64 // avg probes, plain binary search
	Reduction  float64 // AvgFull / AvgRQRMI
}

// VsBinarySearch regenerates the §8 claim that RQRMI reduces memory
// accesses per query by more than 2x compared to a full binary search over
// the same array.
func VsBinarySearch(sc Scale) ([]BinSearchRow, error) {
	var out []BinSearchRow
	for _, family := range routingFamilies {
		rs, err := workload.Generate(workload.Profiles()[family], sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		arr, err := ranges.Convert(rs)
		if err != nil {
			return nil, err
		}
		model, _, err := rqrmi.Train(arr, rs.Width, sc.Model)
		if err != nil {
			return nil, err
		}
		bs := binsearch.FromArray(arr)
		trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.TraceLen/10+1, sc.Seed+8))
		if err != nil {
			return nil, err
		}
		var rqProbes, fullProbes uint64
		for _, k := range trace {
			_, p := model.Lookup(arr, k)
			rqProbes += uint64(p)
			_, _, fp := bs.LookupMem(k, cachesim.Null{})
			fullProbes += uint64(fp)
		}
		row := BinSearchRow{
			Family:     family,
			RangeCount: arr.Len(),
			AvgRQRMI:   float64(rqProbes) / float64(len(trace)),
			AvgFull:    float64(fullProbes) / float64(len(trace)),
		}
		if row.AvgRQRMI > 0 {
			row.Reduction = row.AvgFull / row.AvgRQRMI
		}
		out = append(out, row)
	}
	return out, nil
}

// VsBinarySearchTable renders the comparison.
func VsBinarySearchTable(rows []BinSearchRow) *Table {
	t := &Table{
		Title:  "§8: RQRMI vs full binary search (memory accesses per query)",
		Header: []string{"family", "ranges", "RQRMI probes", "binary-search probes", "reduction"},
		Notes:  []string{"paper: >2x fewer accesses on the evaluated rule-sets (O(log e) vs O(log n))"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Family, fi(r.RangeCount), f2(r.AvgRQRMI), f2(r.AvgFull), f2(r.Reduction) + "x",
		})
	}
	return t
}

// BitwidthRow compares access behaviour across key widths (§6.4).
type BitwidthRow struct {
	Family          string
	Width           int
	NeuroDRAM       int     // NeuroLPM worst-case DRAM accesses
	NeuroSRAMProbes float64 // avg secondary-search probes
	TrieDRAM        int     // Tree Bitmap worst-case chunk reads
}

// Bitwidth regenerates the §6.4 scaling argument: NeuroLPM's accesses are
// width-independent while trie depth grows linearly.
func Bitwidth(sc Scale) ([]BitwidthRow, error) {
	var out []BitwidthRow
	for _, family := range []string{"ripe", "snort", "ipv6"} {
		p := workload.Profiles()[family]
		rs, err := workload.Generate(p, sc.Rules[family], sc.Seed)
		if err != nil {
			return nil, err
		}
		eng, err := core.Build(rs, sc.engineConfig())
		if err != nil {
			return nil, err
		}
		tbm, err := treebitmap.Build(rs)
		if err != nil {
			return nil, err
		}
		trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.TraceLen/20+1, sc.Seed+9))
		if err != nil {
			return nil, err
		}
		var probes uint64
		for _, k := range trace {
			tr := eng.LookupMem(k, cachesim.Null{})
			probes += uint64(tr.SRAMProbes)
		}
		out = append(out, BitwidthRow{
			Family:          family,
			Width:           p.Width,
			NeuroDRAM:       eng.WorstCaseDRAMAccesses(),
			NeuroSRAMProbes: float64(probes) / float64(len(trace)),
			TrieDRAM:        tbm.WorstCaseDRAMAccesses(),
		})
	}
	return out, nil
}

// BitwidthTable renders the width scaling comparison.
func BitwidthTable(rows []BitwidthRow) *Table {
	t := &Table{
		Title:  "§6.4: bit-width scaling — per-query accesses vs key width",
		Header: []string{"family", "width [bits]", "NeuroLPM DRAM acc (worst)", "NeuroLPM SRAM probes (avg)", "Tree Bitmap DRAM acc (worst)"},
		Notes:  []string{"paper: NeuroLPM's access count is width-independent; trie accesses grow linearly with width"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Family, fi(r.Width), fi(r.NeuroDRAM), f2(r.NeuroSRAMProbes), fi(r.TrieDRAM),
		})
	}
	return t
}

// UpdateRow times the three §6.5 update paths.
type UpdateRow struct {
	Kind     string
	Count    int
	Duration time.Duration
}

// Updates regenerates the §6.5 update-path measurements on the RIPE-like
// set: action modification and deletion avoid retraining; insertion pays
// one full (parallel) retraining.
func Updates(sc Scale) ([]UpdateRow, error) {
	rs, err := workload.Generate(workload.RIPE(), sc.Rules["ripe"], sc.Seed)
	if err != nil {
		return nil, err
	}
	eng, err := core.Build(rs, sc.engineConfig())
	if err != nil {
		return nil, err
	}
	var rows []UpdateRow

	nMod := 1000
	if nMod > rs.Len() {
		nMod = rs.Len()
	}
	start := time.Now()
	for i := 0; i < nMod; i++ {
		r := rs.Rules[i]
		if err := eng.ModifyAction(r.Prefix, r.Len, r.Action+1); err != nil {
			return nil, err
		}
	}
	rows = append(rows, UpdateRow{Kind: "modify-action (no retrain)", Count: nMod, Duration: time.Since(start)})

	nDel := 20
	start = time.Now()
	for i := 0; i < nDel; i++ {
		r := rs.Rules[rs.Len()-1-i]
		if err := eng.Delete(r.Prefix, r.Len); err != nil {
			return nil, err
		}
	}
	rows = append(rows, UpdateRow{Kind: "delete (no retrain)", Count: nDel, Duration: time.Since(start)})

	// Insertion: full rebuild + retraining, parallel across submodels.
	extra, err := workload.Generate(workload.RIPE(), 1000, sc.Seed+100)
	if err != nil {
		return nil, err
	}
	var fresh []lpm.Rule
	for _, r := range extra.Rules {
		if rs.Find(r.Prefix, r.Len) == lpm.NoMatch {
			fresh = append(fresh, r)
		}
	}
	start = time.Now()
	if _, err := eng.Rebuild(fresh...); err != nil {
		return nil, err
	}
	rows = append(rows, UpdateRow{
		Kind:     "insert batch (full retrain, " + fi(runtime.GOMAXPROCS(0)) + " workers)",
		Count:    len(fresh),
		Duration: time.Since(start),
	})
	return rows, nil
}

// UpdatesTable renders the update timings.
func UpdatesTable(rows []UpdateRow) *Table {
	t := &Table{
		Title:  "§6.5: update paths",
		Header: []string{"update kind", "count", "total time [ms]", "per update [µs]"},
		Notes:  []string{"paper: insertion-by-retraining runs in ~100ms on 8 x86 cores for an 870K rule-set"},
	}
	for _, r := range rows {
		per := float64(r.Duration.Microseconds()) / float64(max(r.Count, 1))
		t.Rows = append(t.Rows, []string{
			r.Kind, fi(r.Count), fi(int(r.Duration.Milliseconds())), f1(per),
		})
	}
	return t
}

// WorstBWRow is the §10.1 worst-case DRAM bandwidth arithmetic: with 32-byte
// buckets every query fetches one bucket, so the bandwidth requirement is a
// pure function of the packet rate — deterministic by design.
type WorstBWRow struct {
	LineRateGbps  float64
	PacketBytes   int // wire size incl. preamble and IPG
	Mpps          float64
	BucketBytes   int
	WorstCaseGbps float64
}

// WorstCaseBandwidth computes the §10.1 numbers: minimum-size packets at
// the given line rates with one 32-byte bucket fetch per query. At 200Gbps
// this reproduces the paper's "worst-case DRAM bandwidth is 88 Gbps".
func WorstCaseBandwidth() []WorstBWRow {
	const (
		wireBytes   = 64 + 8 // min Ethernet frame + preamble (§10.1 figure, IPG excluded)
		bucketBytes = 32
	)
	var rows []WorstBWRow
	for _, gbps := range []float64{100, 200, 400, 800} {
		mpps := gbps * 1e9 / 8 / wireBytes / 1e6
		rows = append(rows, WorstBWRow{
			LineRateGbps:  gbps,
			PacketBytes:   wireBytes,
			Mpps:          mpps,
			BucketBytes:   bucketBytes,
			WorstCaseGbps: mpps * 1e6 * bucketBytes * 8 / 1e9,
		})
	}
	return rows
}

// WorstCaseBandwidthTable renders the arithmetic.
func WorstCaseBandwidthTable(rows []WorstBWRow) *Table {
	t := &Table{
		Title:  "§10.1: worst-case DRAM bandwidth, one 32B bucket fetch per minimum-size packet",
		Header: []string{"line rate [Gbps]", "packet [B]", "Mpps", "bucket [B]", "worst-case DRAM [Gbps]"},
		Notes:  []string{"paper: 88 Gbps at 200 Gbps line rate; caching reduces the effective demand to a small fraction (Fig 7)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			f1(r.LineRateGbps), fi(r.PacketBytes), f1(r.Mpps), fi(r.BucketBytes), f1(r.WorstCaseGbps),
		})
	}
	return t
}
