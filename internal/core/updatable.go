package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// Updatable wraps an Engine with the update path. The paper's §6.5 has two
// ways to insert — modify in place, or retrain and swap — and so does this:
//
//   - an insertion that stays inside its buckets is absorbed by the live
//     engine (Engine.Insert) in place;
//   - one the engine refuses — an edge bucket already at 64 ranges, or an
//     SRAM-only or K ≥ 64 engine, for which retraining is the insert — is
//     retrained in: Insert rebuilds the engine over its rules plus the new
//     one and swaps it in atomically before it returns.
//
// Either way an acknowledged insert is in the engine. The paper's TCAM delta
// buffer, a hardware stand-in for the retrain's latency, has no analogue: a
// bucket's overflow lives in the bucket as a spill record, and the rare
// refusal pays the rebuild on the writer (DESIGN.md §6, §11).
//
// Lookups load one atomic engine pointer and never take a lock. Writers —
// Insert, Delete, ModifyAction and Commit — are serial under one lock held for
// the whole update, rebuild included: an update that arrives while a rebuild
// runs waits for its swap and lands on the new engine, so no swap can undo
// one.
type Updatable struct {
	engine atomic.Pointer[Engine]
	wmu    sync.Mutex // the writer lock
}

// NewUpdatable wraps a built engine.
func NewUpdatable(e *Engine) *Updatable {
	u := &Updatable{}
	u.engine.Store(e)
	return u
}

// Engine returns the current live engine (for stats and verification).
func (u *Updatable) Engine() *Engine { return u.engine.Load() }

// Lookup answers k from the live engine. It obeys the same
// oracle-equivalence contract as Engine.Lookup (internal/planetest).
func (u *Updatable) Lookup(k keys.Value) (uint64, bool) {
	return u.engine.Load().Lookup(k)
}

// Insert installs a rule: in the live engine when the engine can absorb it,
// else in a rebuilt engine that replaces it before Insert returns. It fails
// when the rule is invalid or already installed, or when the rebuild fails —
// and then nothing was installed.
func (u *Updatable) Insert(r lpm.Rule) error {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	e := u.engine.Load()
	err := e.Insert(r)
	var why notAbsorbed
	if !errors.As(err, &why) {
		if err == nil {
			metAbsorbed.Inc()
		}
		return err
	}
	next, err := retrain(e, []lpm.Rule{r})
	if err != nil {
		return fmt.Errorf("core: rebuild for %s/%d (%s): %w", r.Prefix, r.Len, string(why), err)
	}
	u.engine.Store(next)
	metRebuilt.Inc()
	return nil
}

// ModifyAction rewrites an installed rule's action in the live engine,
// without retraining (§6.5).
func (u *Updatable) ModifyAction(prefix keys.Value, length int, action uint64) error {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	return u.engine.Load().ModifyAction(prefix, length, action)
}

// Delete removes an installed rule from the live engine, without retraining.
func (u *Updatable) Delete(prefix keys.Value, length int) error {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	return u.engine.Load().Delete(prefix, length)
}

// Commit re-densifies: it retrains an engine over the live engine's rules,
// absorbed ones included, and swaps it in atomically, folding every spill
// record back into dense buckets. Queries proceed against the old engine for
// the whole duration (§6.5: both versions coexist). A failure leaves the live
// engine as it was.
func (u *Updatable) Commit() error {
	u.wmu.Lock()
	defer u.wmu.Unlock()
	next, err := retrain(u.engine.Load(), nil)
	if err != nil {
		return err
	}
	u.engine.Store(next)
	return nil
}

// retrain is the rebuild both Commit and a refused Insert run: old's live
// rules plus add, between the two fault sites. Its result is not yet live.
func retrain(old *Engine, add []lpm.Rule) (*Engine, error) {
	hook := old.cfg.Fault
	if hook != nil {
		if err := hook(fault.SiteRetrain); err != nil {
			return nil, err
		}
	}
	next, err := old.InsertBatch(add)
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
