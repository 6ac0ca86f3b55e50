package load

import (
	"sync/atomic"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/wire"
	"neurolpm/internal/workload"
)

// updateLoop replays cfg.Updates on its own wire connection at the stream's
// Poisson schedule, looping until the send window closes. Between passes any
// site the stream left populated is deleted first, so each pass's inserts
// apply cleanly. A refusal counts as an update error and the stream keeps its
// pace.
func (r *runner) updateLoop(stop <-chan struct{}, sent, errs *atomic.Int64) {
	c, err := wire.Dial(r.cfg.Addr, 5*time.Second)
	if err != nil {
		errs.Add(1)
		return
	}
	defer c.Close()
	present := make(map[keys.Value]bool, len(r.cfg.Updates))
	for {
		passStart := time.Now()
		for _, u := range r.cfg.Updates {
			if !sleepUntil(stop, passStart.Add(u.At)) {
				return
			}
			if u.Op == workload.UpdateInsert && present[u.Rule.Prefix] {
				// Leftover from the previous pass: clear it so the insert
				// applies (mixed streams end mid-flap).
				applyOne(c, workload.Update{Op: workload.UpdateDelete, Rule: u.Rule}, present, sent, errs)
			}
			applyOne(c, u, present, sent, errs)
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

// applyOne sends one update and tracks site presence.
func applyOne(c *wire.Client, u workload.Update, present map[keys.Value]bool, sent, errs *atomic.Int64) {
	err := c.Update(wire.RuleUpdate{Op: uint8(u.Op), Prefix: u.Rule.Prefix, Len: u.Rule.Len, Action: u.Rule.Action})
	sent.Add(1)
	if err != nil {
		errs.Add(1)
		return
	}
	switch u.Op {
	case workload.UpdateInsert:
		present[u.Rule.Prefix] = true
	case workload.UpdateDelete:
		present[u.Rule.Prefix] = false
	}
}

// sleepUntil sleeps until t or stop; false means stop fired.
func sleepUntil(stop <-chan struct{}, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-stop:
		return false
	case <-timer.C:
		return true
	}
}
