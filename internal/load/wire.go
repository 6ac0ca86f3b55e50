package load

import (
	"fmt"
	"sync"
	"time"

	"neurolpm/internal/wire"
)

// drainTimeout bounds how long the driver waits for in-flight responses
// after the send window closes before giving up on them.
const drainTimeout = 3 * time.Second

// wireConnState is one pipelined connection: the sender registers each
// request's schedule under mu before writing, the receiver matches response
// ids back to it. outstanding lets the drain phase wait for exactly the
// requests that were sent.
type wireConnState struct {
	c  *wire.Client
	mu sync.Mutex
	// pending maps request id -> (trace index, scheduled send time).
	pending     map[uint64]job
	outstanding sync.WaitGroup
}

// runWire drives the binary wire protocol. Open-loop mode pipelines: the
// per-connection sender keeps writing frames on schedule regardless of how
// many responses are still in flight, which is what lets the server batch
// the lookups that arrive in one read.
func (r *runner) runWire(start time.Time) error {
	conns := make([]*wireConnState, r.cfg.Conns)
	for i := range conns {
		c, err := wire.Dial(r.cfg.Addr, 5*time.Second)
		if err != nil {
			return fmt.Errorf("dial wire conn %d: %w", i, err)
		}
		conns[i] = &wireConnState{c: c, pending: make(map[uint64]job)}
	}
	defer func() {
		for _, cs := range conns {
			cs.c.Close()
		}
	}()

	if r.cfg.Rate <= 0 {
		return r.runWireClosed(conns, start)
	}

	// Receivers run for the whole window plus drain.
	var recvWg sync.WaitGroup
	for _, cs := range conns {
		recvWg.Add(1)
		go func(cs *wireConnState) {
			defer recvWg.Done()
			r.wireReceiver(cs)
		}(cs)
	}

	jobs := make(chan job, 1024)
	go r.schedule(jobs, start)

	var sendWg sync.WaitGroup
	for _, cs := range conns {
		sendWg.Add(1)
		go func(cs *wireConnState) {
			defer sendWg.Done()
			for j := range jobs {
				id := cs.c.ID()
				cs.mu.Lock()
				cs.pending[id] = j
				cs.mu.Unlock()
				cs.outstanding.Add(1)
				k := r.cfg.Trace[j.idx]
				if err := cs.c.Send(func(b []byte) []byte { return wire.AppendLookup(b, id, k) }); err != nil {
					r.errors.Add(1)
					cs.mu.Lock()
					delete(cs.pending, id)
					cs.mu.Unlock()
					cs.outstanding.Done()
				}
			}
		}(cs)
	}
	sendWg.Wait()

	// Drain: wait for every outstanding response (bounded), then close the
	// connections so the receivers unblock.
	for _, cs := range conns {
		waitTimeout(&cs.outstanding, drainTimeout)
	}
	for _, cs := range conns {
		cs.c.Close()
	}
	recvWg.Wait()
	return nil
}

// wireReceiver matches response frames back to their scheduled jobs until
// the connection closes.
func (r *runner) wireReceiver(cs *wireConnState) {
	for {
		f, err := cs.c.Recv()
		if err != nil {
			// Connection closed by the drain phase (or the server); any
			// still-pending requests are simply lost sends.
			return
		}
		cs.mu.Lock()
		j, ok := cs.pending[f.ID]
		if ok {
			delete(cs.pending, f.ID)
		}
		cs.mu.Unlock()
		if !ok {
			r.errors.Add(1)
			continue
		}
		switch f.Op {
		case wire.OpResult:
			res, derr := f.Result()
			if derr != nil {
				r.errors.Add(1)
			} else {
				r.record(time.Since(j.sched))
				r.verify(j.idx, res.Action, res.Matched)
			}
		default:
			r.errors.Add(1)
		}
		cs.outstanding.Done()
	}
}

// runWireClosed is the closed-loop arm: one synchronous request in flight
// per connection, latency measured from the moment the request leaves.
func (r *runner) runWireClosed(conns []*wireConnState, start time.Time) error {
	deadline := start.Add(r.cfg.Duration)
	var wg sync.WaitGroup
	for ci, cs := range conns {
		wg.Add(1)
		go func(ci int, cs *wireConnState) {
			defer wg.Done()
			idx := ci % len(r.cfg.Trace)
			for time.Now().Before(deadline) {
				k := r.cfg.Trace[idx]
				r.sent.Add(1)
				t0 := time.Now()
				res, err := cs.c.Lookup(k)
				if err != nil {
					r.errors.Add(1)
				} else {
					r.record(time.Since(t0))
					r.verify(idx, res.Action, res.Matched)
				}
				idx += r.cfg.Conns
				if idx >= len(r.cfg.Trace) {
					idx -= len(r.cfg.Trace)
				}
			}
		}(ci, cs)
	}
	wg.Wait()
	return nil
}

// waitTimeout waits for wg up to d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
