package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"neurolpm/internal/bucket"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/serve"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/wire"
	"neurolpm/internal/workload"
)

const (
	// tracedBlocks is how many 256-key blocks of the workload's trace a
	// traced run walks through every layer (and as many sibling blocks
	// through the layers under it); warmBlocks more run first, unrecorded,
	// so code and model are warm.
	tracedBlocks = 1536
	warmBlocks   = 128
	// ledgerShards matches the served topology (-shards 4).
	ledgerShards = 4
	// ledgerUpdates is how many churn-stream updates the private
	// ShardedUpdatable is fed.
	ledgerUpdates = 1000
)

// span is one timed call loop into a layer: Trace is the 256-key block it
// served, Parent the span that caused it (0 = none), N the keys it covered.
// Start and End are ns since the tracer began. Child spans are replayed
// right after their parent, by calling the layer's exported function for the
// parent's keys: this change records spans from the benchmark's own files,
// not from inside the program.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	N      int    `json:"n"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(block, parent int, name string, start, end time.Time, n int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: block, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n,
	})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perKey reduces spans to per-key figures: for each span name (a child's
// name is prefixed "parent/"), the median over spans of duration ÷ keys, and
// of self time ÷ keys. A span's self time is its duration minus the part its
// child spans cover; children never overlap one another here.
func perKey(spans []span) (dur, self map[string]float64) {
	name := make(map[int]string, len(spans))
	child := make(map[int]int64)
	for _, s := range spans {
		name[s.ID] = s.Name
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		n := s.Name
		if s.Parent != 0 {
			n = name[s.Parent] + "/" + n
		}
		durs[n] = append(durs[n], float64(s.End-s.Start)/float64(s.N))
		selfs[n] = append(selfs[n], float64(s.End-s.Start-child[s.ID])/float64(s.N))
	}
	dur = make(map[string]float64, len(durs))
	self = make(map[string]float64, len(durs))
	for n := range durs {
		dur[n] = median(durs[n])
		self[n] = median(selfs[n])
	}
	return dur, self
}

// ledger is the per-layer side of a traced run that does not need the
// server: build steps, the engine's layers walked block by block over the
// workload's own trace, the cache, the shard router, the update path, the
// wire codec, the HTTP handler. It fills m and returns how many answers it
// checked and how many were wrong.
type ledger struct {
	in     *inputs
	seed   int64
	engine *core.Engine
	m      map[string]float64
	tr     *tracer

	checked, wrong int64
	untracedNs     float64 // core.lookup per key with nothing replayed, for the closure print
}

func timed(f func() error) (float64, error) {
	t := time.Now()
	err := f()
	return time.Since(t).Seconds(), err
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// buildSteps times one call of each offline stage; core.build_self_s is
// core.Build's time not covered by the stages it calls.
func (l *ledger) buildSteps(coreBuildS float64) (*shard.ShardedUpdatable, error) {
	m, rs := l.m, l.in.rs
	m["workload.generate_s"] = l.in.generateS
	m["lpm.trie_build_s"] = l.in.trieBuildS
	text := rs.Format()
	var err error
	if m["lpm.parse_s"], err = timed(func() error { _, err := lpm.ParseRuleSet(keyWidth, text); return err }); err != nil {
		return nil, err
	}
	var ra *ranges.Array
	if m["ranges.convert_s"], err = timed(func() (err error) { ra, err = ranges.Convert(rs); return }); err != nil {
		return nil, err
	}
	m["ranges.expansion"] = ra.Expansion(rs.Len()).Expansion
	cfg := core.DefaultConfig()
	var dir *bucket.Directory
	if m["bucket.build_s"], err = timed(func() (err error) { dir, err = bucket.Build(ra, cfg.BucketSize); return }); err != nil {
		return nil, err
	}
	var model *rqrmi.Model
	if m["rqrmi.train_s"], err = timed(func() (err error) { model, _, err = rqrmi.Train(dir, keyWidth, cfg.Model); return }); err != nil {
		return nil, err
	}
	if m["rqrmi.compile_s"], err = timed(func() error { _, err := rqrmi.Compile(model, dir); return err }); err != nil {
		return nil, err
	}
	m["core.build_s"] = coreBuildS
	m["core.build_self_s"] = coreBuildS - m["ranges.convert_s"] - m["bucket.build_s"] - m["rqrmi.train_s"] - m["rqrmi.compile_s"]
	var sh *shard.ShardedUpdatable
	if m["shard.build_s"], err = timed(func() (err error) {
		sh, err = shard.BuildUpdatable(rs, cfg, ledgerShards, 0)
		return
	}); err != nil {
		return nil, err
	}
	return sh, nil
}

func (l *ledger) verify(block int, got []wire.Result) {
	want := l.in.want[block*blockKeys:]
	for i, r := range got {
		l.checked++
		if r != want[i] {
			l.wrong++
		}
	}
}

// pass is one walk over the traced blocks through one layer and the layers
// under it. Layers are walked in separate passes, not interleaved block by
// block, so one layer's working set does not evict the next one's.
//
// parent answers block b; children, when not nil, replays the layers under
// the parent over block b+n, a block of the same trace that nothing in this
// pass has touched. Replaying the parent's own keys would run the children on
// lines the parent just pulled into cache and book every miss to the
// parent's self time; on a sibling block, parent and children each pay their
// own misses.
type pass struct {
	name string
	// bare marks a layer that yields predictions, not answers: there is
	// nothing of its own to check against the oracle.
	bare     bool
	parent   func(ks []keys.Value, got []wire.Result)
	children []layerCall
}

type layerCall struct {
	name string
	call func(ks []keys.Value, got []wire.Result) // got is filled by the last child only
}

type walkScratch struct {
	got    [blockKeys]wire.Result
	preds  [blockKeys]rqrmi.Prediction
	bucket [blockKeys]int
	rng    [blockKeys]int
	res    []core.BatchResult

	probes, cmps, gets, hits int
}

func (l *ledger) block(b int) []keys.Value { return l.in.trace[b*blockKeys : (b+1)*blockKeys] }

// walk runs p over warm unrecorded blocks from the trace's tail, then over n
// recorded blocks from its head.
func (l *ledger) walk(p pass, n, warm int, sc *walkScratch) {
	got := sc.got[:]
	last := len(l.in.trace)/blockKeys - 1
	for i := -warm; i < n; i++ {
		pb, cb := i, i+n
		if i < 0 {
			pb, cb = last+i+1, last+i+1
		}
		t := time.Now()
		p.parent(l.block(pb), got)
		end := time.Now()
		if !p.bare {
			l.verify(pb, got)
		}
		id := 0
		if i >= 0 {
			id = l.tr.add(pb, 0, p.name, t, end, blockKeys)
		}
		for ci, c := range p.children {
			t = time.Now()
			c.call(l.block(cb), got)
			end = time.Now()
			if i >= 0 {
				l.tr.add(cb, id, c.name, t, end, blockKeys)
			}
			if ci == len(p.children)-1 {
				l.verify(cb, got) // the replayed layers must land on the oracle's answer too
			}
		}
	}
}

// engineLayers walks the traced blocks and turns the spans into metrics.
func (l *ledger) engineLayers(sh *shard.ShardedUpdatable) {
	e := l.engine
	comp, quant, dir, ra := e.Compiled(), e.Quantized(), e.Directory(), e.Ranges()
	n, warm := tracedBlocks, warmBlocks
	if total := len(l.in.trace) / blockKeys; 2*n+warm > total {
		n, warm = total*3/8, total/8
	}
	sc := &walkScratch{}
	cache := lcache.New(1 << 20)
	const epoch = 1
	passes := []pass{
		{name: "core.lookup",
			parent: func(ks []keys.Value, got []wire.Result) {
				for i, k := range ks {
					a, ok := e.Lookup(k)
					got[i] = wire.Result{Action: a, Matched: ok}
				}
			},
			children: []layerCall{
				{"rqrmi.predict", func(ks []keys.Value, _ []wire.Result) {
					for i, k := range ks {
						sc.preds[i] = comp.Predict(k)
					}
				}},
				{"rqrmi.search", func(ks []keys.Value, _ []wire.Result) {
					for i, k := range ks {
						var p int
						sc.bucket[i], p = comp.Search(k, sc.preds[i])
						sc.probes += p
					}
				}},
				{"bucket.search", func(ks []keys.Value, _ []wire.Result) {
					for i, k := range ks {
						var c int
						sc.rng[i], c = dir.Search(sc.bucket[i], k)
						sc.cmps += c
					}
				}},
				{"ranges.action", func(ks []keys.Value, got []wire.Result) {
					for i := range ks {
						a, ok := ra.Action(sc.rng[i])
						got[i] = wire.Result{Action: a, Matched: ok}
					}
				}},
			}},
		{name: "core.batch",
			parent: func(ks []keys.Value, got []wire.Result) {
				sc.res = e.LookupBatch(ks, sc.res[:0])
				for i, r := range sc.res {
					got[i] = wire.Result{Action: r.Action, Matched: r.Matched}
				}
			}},
		{name: "rqrmi.predict_batch", bare: true,
			parent: func(ks []keys.Value, got []wire.Result) { comp.PredictBatch(ks, sc.preds[:]) }},
		{name: "rqrmi.quant_predict", bare: true,
			parent: func(ks []keys.Value, got []wire.Result) {
				for i, k := range ks {
					sc.preds[i] = quant.Predict(k)
				}
			}},
		{name: "shard.lookup",
			parent: func(ks []keys.Value, got []wire.Result) {
				for i, k := range ks {
					a, ok := sh.Lookup(k)
					got[i] = wire.Result{Action: a, Matched: ok}
				}
			},
			children: []layerCall{{"core.lookup", func(ks []keys.Value, got []wire.Result) {
				const shift = keyWidth - 2 // the owning sub-engine is the key's top 2 bits
				for i, k := range ks {
					a, ok := sh.Engine(int(k.Lo >> shift)).Lookup(k)
					got[i] = wire.Result{Action: a, Matched: ok}
				}
			}}}},
		{name: "shard.batch",
			parent: func(ks []keys.Value, got []wire.Result) {
				for i, r := range sh.LookupBatch(ks) {
					got[i] = wire.Result{Action: r.Action, Matched: r.Matched}
				}
			}},
	}
	for _, p := range passes {
		l.walk(p, n, warm, sc)
		if p.name == "core.lookup" {
			// Counted over warm-up blocks too; both are per key.
			keysWalked := float64((n + warm) * blockKeys)
			l.m["rqrmi.search_probes"] = float64(sc.probes) / keysWalked
			l.m["bucket.comparisons"] = float64(sc.cmps) / keysWalked
		}
	}

	// The result cache is off in the default server; this is the baseline a
	// change that enables or deletes it argues from. Misses are filled with
	// the oracle's answer outside the timed loop.
	for b := 0; b < n; b++ {
		ks := l.block(b)
		var hit [blockKeys]bool
		t := time.Now()
		for i, k := range ks {
			_, _, o := cache.Get(k, epoch)
			hit[i] = o == lcache.Hit
		}
		l.tr.add(b, 0, "lcache.get", t, time.Now(), blockKeys)
		for i, k := range ks {
			sc.gets++
			if hit[i] {
				sc.hits++
				continue
			}
			w := l.in.want[b*blockKeys+i]
			cache.Put(k, epoch, w.Action, w.Matched)
		}
	}

	// The core.lookup pass once more with nothing replayed between blocks:
	// the untraced figure the tracing overhead is measured against.
	var plain []float64
	for b := -warm; b < n; b++ {
		pb := b
		if b < 0 {
			pb = len(l.in.trace)/blockKeys + b
		}
		t := time.Now()
		passes[0].parent(l.block(pb), sc.got[:])
		if b >= 0 {
			plain = append(plain, float64(time.Since(t))/blockKeys)
		}
		l.verify(pb, sc.got[:])
	}

	m := l.m
	pk, self := perKey(l.tr.spans)
	m["core.lookup_ns"] = pk["core.lookup"]
	m["rqrmi.predict_ns"] = pk["core.lookup/rqrmi.predict"]
	m["rqrmi.search_ns"] = pk["core.lookup/rqrmi.search"]
	m["bucket.search_ns"] = pk["core.lookup/bucket.search"]
	m["ranges.action_ns"] = pk["core.lookup/ranges.action"]
	m["core.lookup_self_ns"] = self["core.lookup"]
	m["core.batch_ns"] = pk["core.batch"]
	m["rqrmi.predict_batch_ns"] = pk["rqrmi.predict_batch"]
	m["rqrmi.quant_predict_ns"] = pk["rqrmi.quant_predict"]
	m["shard.lookup_ns"] = pk["shard.lookup"]
	m["shard.route_self_ns"] = self["shard.lookup"]
	m["shard.batch_ns"] = pk["shard.batch"]
	m["lcache.get_ns"] = pk["lcache.get"]
	m["lcache.hit_share"] = float64(sc.hits) / float64(sc.gets)
	m["rqrmi.max_err"] = float64(e.Compiled().MaxErr())
	m["rqrmi.model_bytes"] = float64(e.SRAMUsage().Model)
	untraced := median(plain)
	m["trace.overhead_share"] = (m["core.lookup_ns"] - untraced) / untraced
	l.untracedNs = untraced

	ks := l.block(0)
	const calls = 200
	before := mallocs()
	for i := 0; i < calls; i++ {
		sh.LookupBatch(ks)
	}
	m["shard.batch_allocs"] = float64(mallocs()-before) / calls
}

// updatePath feeds the private ShardedUpdatable the head of a churn stream
// and times each call, then commits every shard the stream dirtied.
func (l *ledger) updatePath(sh *shard.ShardedUpdatable) error {
	ch, err := makeChurn(l.in, l.seed, time.Duration(float64(ledgerUpdates)/churnRate*float64(time.Second)))
	if err != nil {
		return err
	}
	byOp := make(map[workload.UpdateOp][]float64)
	firstDelete := true
	n := ledgerUpdates
	if n > len(ch.updates) {
		n = len(ch.updates)
	}
	for _, u := range ch.updates[:n] {
		t := time.Now()
		switch u.Op {
		case workload.UpdateInsert:
			err = sh.Insert(u.Rule)
		case workload.UpdateModify:
			err = sh.ModifyAction(u.Rule.Prefix, u.Rule.Len, u.Rule.Action)
		case workload.UpdateDelete:
			err = sh.Delete(u.Rule.Prefix, u.Rule.Len)
		}
		d := time.Since(t)
		l.checked++
		if err != nil {
			l.wrong++
			continue
		}
		if u.Op == workload.UpdateDelete && firstDelete {
			// A shard's first delete of a committed rule builds its trie; a
			// delete the delta buffer absorbs does not, so keep the slowest.
			l.m["shard.first_delete_ms"] = float64(d) / 1e6
			firstDelete = false
			continue
		}
		byOp[u.Op] = append(byOp[u.Op], float64(d)/1e3)
	}
	l.m["shard.insert_us"] = median(byOp[workload.UpdateInsert])
	l.m["shard.modify_us"] = median(byOp[workload.UpdateModify])
	l.m["shard.delete_us"] = median(byOp[workload.UpdateDelete])
	var commits []float64
	for i := 0; i < sh.Shards(); i++ {
		s, err := timed(func() error { return sh.Commit(i) })
		if err != nil {
			return fmt.Errorf("commit shard %d: %w", i, err)
		}
		commits = append(commits, s*1e3)
	}
	l.m["shard.commit_ms"] = median(commits)
	// After the commits a delete does hit a committed rule: that is the
	// first-delete trie build the churn workload pays on the reader.
	for _, u := range ch.updates[n:] {
		if u.Op != workload.UpdateDelete {
			continue
		}
		t := time.Now()
		if err := sh.Delete(u.Rule.Prefix, u.Rule.Len); err == nil {
			if d := float64(time.Since(t)) / 1e6; d > l.m["shard.first_delete_ms"] {
				l.m["shard.first_delete_ms"] = d
			}
			break
		}
	}
	return nil
}

// codec times the wire encoders and decoders over an in-memory reader.
func (l *ledger) codec() error {
	const frames = 1 << 16
	ks := l.in.trace
	var buf []byte
	lookup := wire.AppendLookup(nil, 1, ks[0])
	result := wire.AppendResult(nil, 1, 7, true)
	l.m["wire.bytes_per_lookup"] = float64(len(lookup) + len(result))

	var stream []byte
	for i := 0; i < frames; i++ {
		stream = wire.AppendLookup(stream, uint64(i), ks[i%len(ks)])
		stream = wire.AppendResult(stream, uint64(i), uint64(i), true)
	}
	before := mallocs()
	t := time.Now()
	for i := 0; i < frames; i++ {
		buf = wire.AppendLookup(buf[:0], uint64(i), ks[i%len(ks)])
		buf = wire.AppendResult(buf[:0], uint64(i), uint64(i), true)
	}
	l.m["wire.encode_ns"] = float64(time.Since(t)) / (2 * frames)
	r := bufio.NewReaderSize(bytes.NewReader(stream), 64<<10)
	var rbuf []byte
	t = time.Now()
	for i := 0; i < 2*frames; i++ {
		f, b, err := wire.ReadFrame(r, rbuf)
		rbuf = b
		if err != nil {
			return fmt.Errorf("decode frame %d: %w", i, err)
		}
		if f.Op == wire.OpLookup {
			_, err = f.Key()
		} else {
			_, err = f.Result()
		}
		if err != nil {
			return fmt.Errorf("decode frame %d: %w", i, err)
		}
	}
	l.m["wire.decode_ns"] = float64(time.Since(t)) / (2 * frames)
	l.m["wire.allocs_per_frame"] = float64(mallocs()-before) / (4 * frames)
	return nil
}

// httpPlane times the HTTP/JSON lookup handler with no socket under it.
func (l *ledger) httpPlane(sh *shard.ShardedUpdatable) {
	h := serve.NewSharded(sh, telemetry.Default).Handler()
	const calls = 4096
	var us []float64
	for i := 0; i < calls; i++ {
		k := l.in.trace[i%len(l.in.trace)]
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/lookup?key=%d", k.Lo), nil)
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(t))/1e3)
		var resp struct {
			Matched bool   `json:"matched"`
			Action  uint64 `json:"action"`
		}
		l.checked++
		w := l.in.want[i%len(l.in.trace)]
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
			resp.Matched != w.Matched || (w.Matched && resp.Action != w.Action) {
			l.wrong++
		}
	}
	sort.Float64s(us)
	l.m["serve.http_lookup_us"] = us[len(us)/2]
}

// run fills the ledger. The private ShardedUpdatable is read first and
// updated last, so its lookups are measured with no pending inserts.
func (l *ledger) run(coreBuildS float64) error {
	sh, err := l.buildSteps(coreBuildS)
	if err != nil {
		return err
	}
	defer sh.Close()
	l.engineLayers(sh)
	l.httpPlane(sh)
	if err := l.codec(); err != nil {
		return err
	}
	return l.updatePath(sh)
}
