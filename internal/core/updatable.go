package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
)

// ErrDeltaFull is the write-backpressure signal: the delta buffer is at
// capacity and the insertion was refused. Callers should commit (or let the
// background committer catch up) and retry; the serving layer maps it to
// HTTP 429. Matched with errors.Is through any wrapping.
var ErrDeltaFull = errors.New("core: delta buffer full")

// Updatable wraps an Engine with the update path. An insertion that stays
// inside its buckets is absorbed by the live engine (Engine.Insert) and is
// committed the moment Insert returns. One that does not takes the two §6.5
// mechanisms that make insertion practical on a retraining-based engine:
//
//   - a delta buffer — the software analogue of the small TCAM the paper
//     proposes ("a small TCAM with 10K entries can support 33K–100K updates
//     per second") — holds the rule at once: queries consult the buffer
//     alongside the engine and the longer prefix wins;
//   - atomic commit — Commit retrains a fresh engine over the merged
//     rule-set off the query path and swaps it in atomically, the
//     concurrent-versions scheme of the paper's atomicity discussion.
//
// Lookups are wait-free with respect to Commit (they read an atomic engine
// pointer), and while the delta buffer is empty they never touch a mutex.
// Writers — Insert, Delete, ModifyAction and Commit — are serial: an update
// that arrives while a commit rebuilds waits for its swap and lands on the new
// engine, so no swap can undo one.
type Updatable struct {
	engine atomic.Pointer[Engine]

	// wmu is the writer lock, held for the whole of every update and every
	// commit, rebuild included.
	wmu sync.Mutex
	// mu pairs the engine with delta's maps for overlay readers: a writer
	// holds it across every in-place update, every change to the maps and a
	// commit's swap-and-drain — not across the rebuild.
	mu       sync.Mutex
	capacity int
	delta    *deltaBuffer
}

// DefaultDeltaCapacity mirrors the 10K-entry TCAM the paper cites as the
// realistic delta-buffer size (NVIDIA production switches use such TCAMs).
const DefaultDeltaCapacity = 10000

// NewUpdatable wraps a built engine. capacity ≤ 0 selects
// DefaultDeltaCapacity.
func NewUpdatable(e *Engine, capacity int) *Updatable {
	if capacity <= 0 {
		capacity = DefaultDeltaCapacity
	}
	u := &Updatable{capacity: capacity, delta: newDeltaBuffer(e.Width())}
	u.engine.Store(e)
	return u
}

// Engine returns the current live engine (for stats and verification).
func (u *Updatable) Engine() *Engine { return u.engine.Load() }

// PendingInserts returns the number of rules waiting in the delta buffer (an
// atomic load: readers poll it on every lookup).
func (u *Updatable) PendingInserts() int { return u.delta.len() }

// Lookup consults the delta buffer and the main engine and returns the
// longer-prefix match, exactly as a TCAM stage in front of the engine
// would. It obeys the same oracle-equivalence contract as Engine.Lookup —
// the overlay must answer exactly what a trie over engine+delta rules would
// — across every stack configuration (internal/planetest).
func (u *Updatable) Lookup(k keys.Value) (uint64, bool) {
	return u.lookupOverlay(plane.Compiled, k)
}

// lookupOverlay is the delta-overlay arm of the stack executor: the engine
// half runs through the inf-selected inference plane, then the longer prefix
// of {engine match, delta match} wins.
func (u *Updatable) lookupOverlay(inf plane.Inference, k keys.Value) (uint64, bool) {
	// Count first, engine second: Commit publishes the new engine before it
	// drains the buffer, so a reader that sees the buffer empty also sees
	// every engine the drained rules were committed into (DESIGN.md §11).
	if u.delta.len() == 0 {
		tr := u.engine.Load().lookupInfer(inf, k, nullMem{}, nil)
		return tr.Action, tr.Matched
	}
	// A non-empty buffer is read under the mutex, and the engine with it:
	// Commit swaps and drains inside one critical section, so the pair is
	// never the old engine beside the drained buffer; and no update moves the
	// engine between its answer and the prefix-length tie-break — an insert
	// absorbed in between would lengthen the owner under an answer it did not
	// give. Only the overflow path pays this: the buffer is empty unless an
	// insert was refused, it is tiny, and hardware gives the TCAM its own port.
	u.mu.Lock()
	defer u.mu.Unlock()
	e := u.engine.Load()
	dAction, dLen, dOK := u.delta.lookup(k)
	tr := e.lookupInfer(inf, k, nullMem{}, nil)
	if dOK && (!tr.Matched || e.ownerLen(k) < dLen) {
		return dAction, true
	}
	return tr.Action, tr.Matched
}

// nullMem avoids importing cachesim here just for the no-op reader.
type nullMem struct{}

func (nullMem) Read(uint64, int) {}

// Insert installs a rule: in the live engine when the engine can absorb it,
// else in the delta buffer, where it is queryable at once and waits for a
// commit. It fails when the rule already exists, or when it needs the buffer
// and the buffer is full — the caller should Commit.
func (u *Updatable) Insert(r lpm.Rule) error {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	u.mu.Lock()
	defer u.mu.Unlock()
	// The engine is loaded under the lock: a Commit may have replaced the one
	// loaded before it.
	e := u.engine.Load()
	if err := r.Validate(e.Width()); err != nil {
		return err
	}
	if u.delta.has(r.Prefix, r.Len) {
		return fmt.Errorf("core: rule %s/%d already pending", r.Prefix, r.Len)
	}
	err := e.Insert(r) // bumps the epoch on success
	if err == nil {
		metAbsorbed.Inc()
		return nil
	}
	var why NotAbsorbed
	if !errors.As(err, &why) {
		return err
	}
	if hook := e.cfg.Fault; hook != nil {
		if err := hook(fault.SiteDeltaFull); err != nil {
			return fmt.Errorf("%w (injected: %v)", ErrDeltaFull, err)
		}
	}
	if u.delta.len() >= u.capacity {
		return fmt.Errorf("%w (%d rules); commit first", ErrDeltaFull, u.capacity)
	}
	u.delta.insert(r)
	metBuffered.Inc()
	metBufferedWhy[why].Inc()
	// The new rule is queryable through the overlay the moment the mutex
	// drops; cached results that the rule now shadows must die.
	e.epoch.Bump()
	return nil
}

// ModifyAction and Delete reach a buffered rule in the buffer and any other
// in the live engine, without retraining either way.
func (u *Updatable) ModifyAction(prefix keys.Value, length int, action uint64) error {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	u.mu.Lock()
	defer u.mu.Unlock()
	e := u.engine.Load()
	if u.delta.modify(prefix, length, action) {
		e.epoch.Bump()
		return nil
	}
	return e.ModifyAction(prefix, length, action) // bumps on success
}

// Delete removes a rule from the delta buffer or, failing that, from the
// live engine (no retraining either way).
func (u *Updatable) Delete(prefix keys.Value, length int) error {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	u.mu.Lock()
	defer u.mu.Unlock()
	e := u.engine.Load()
	if u.delta.remove(prefix, length) {
		e.epoch.Bump()
		return nil
	}
	return e.Delete(prefix, length) // bumps on success
}

// Commit retrains an engine over the merged rule-set — the live engine's
// rules, absorbed ones included, plus the buffered ones — and swaps it in
// atomically, draining the delta buffer and with it every spill record.
// Queries proceed against the old engine for the whole duration (§6.5: both
// versions coexist; free SRAM doubles as cache in hardware, so the transient
// costs bandwidth, not downtime).
func (u *Updatable) Commit() error {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	// No writer runs beside this one, so the snapshot needs no mu. A failure
	// at any point before the swap leaves the delta buffer untouched: the
	// pending rules stay visible through the overlay and a later commit
	// applies them exactly once.
	pending := u.delta.rules()
	next, err := u.retrain(u.engine.Load(), pending)
	if err != nil {
		return err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	// Engine before drain: a lock-free reader that finds the buffer empty
	// must find the committed rules in the engine it loads next.
	u.engine.Store(next)
	for _, r := range pending {
		u.delta.remove(r.Prefix, r.Len)
	}
	// Bump strictly after the swap is visible (next shares old's epoch
	// pointer via InsertBatch): a reader that loads the post-bump epoch is
	// guaranteed — release on Bump, acquire on Load — to also see the new
	// engine pointer and the drained delta, so its fill reflects post-commit
	// state; a reader that loaded the pre-bump epoch fills dead entries.
	next.epoch.Bump()
	return nil
}

// retrain is Commit's middle, off mu: the rebuild between the two fault
// sites.
func (u *Updatable) retrain(old *Engine, pending []lpm.Rule) (*Engine, error) {
	hook := old.cfg.Fault
	if hook != nil {
		if err := hook(fault.SiteRetrain); err != nil {
			return nil, err
		}
	}
	next, err := old.InsertBatch(pending)
	if err != nil {
		return nil, err
	}
	if hook != nil {
		if err := hook(fault.SiteSwap); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// deltaBuffer is a small overlay rule store with longest-prefix lookup. At
// TCAM-like sizes (≤10K rules) a per-length exact-match probe is plenty. The
// maps are guarded by Updatable.mu; total is atomic so readers can skip the
// lock while it is zero.
type deltaBuffer struct {
	width int
	byLen map[int]map[keys.Value]uint64
	total atomic.Int64
}

func newDeltaBuffer(width int) *deltaBuffer {
	return &deltaBuffer{width: width, byLen: map[int]map[keys.Value]uint64{}}
}

func (d *deltaBuffer) len() int { return int(d.total.Load()) }

func (d *deltaBuffer) has(prefix keys.Value, length int) bool {
	_, ok := d.byLen[length][prefix]
	return ok
}

// insert adds a rule the buffer does not hold.
func (d *deltaBuffer) insert(r lpm.Rule) {
	t, ok := d.byLen[r.Len]
	if !ok {
		t = map[keys.Value]uint64{}
		d.byLen[r.Len] = t
	}
	t[r.Prefix] = r.Action
	d.total.Add(1)
}

func (d *deltaBuffer) remove(prefix keys.Value, length int) bool {
	if !d.has(prefix, length) {
		return false
	}
	delete(d.byLen[length], prefix)
	d.total.Add(-1)
	return true
}

func (d *deltaBuffer) modify(prefix keys.Value, length int, action uint64) bool {
	if !d.has(prefix, length) {
		return false
	}
	d.byLen[length][prefix] = action
	return true
}

// lookup returns the longest pending match.
func (d *deltaBuffer) lookup(k keys.Value) (action uint64, length int, ok bool) {
	for l := d.width; l >= 0; l-- {
		t, have := d.byLen[l]
		if !have {
			continue
		}
		key := k
		if l < d.width {
			shift := uint(d.width - l)
			key = k.Shr(shift).Shl(shift)
		}
		if a, hit := t[key]; hit {
			return a, l, true
		}
	}
	return 0, 0, false
}

func (d *deltaBuffer) rules() []lpm.Rule {
	out := make([]lpm.Rule, 0, d.len())
	for l, t := range d.byLen {
		for p, a := range t {
			out = append(out, lpm.Rule{Prefix: p, Len: l, Action: a})
		}
	}
	return out
}
