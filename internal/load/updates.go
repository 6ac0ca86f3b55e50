package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/wire"
	"neurolpm/internal/workload"
)

// updateLoop replays cfg.Updates on its own connection at the stream's
// Poisson schedule, looping until the send window closes. Between passes any
// site the stream left populated is deleted first, so each pass's inserts
// apply cleanly. A not-implemented answer (a server without an update plane) ends the
// loop; backpressure (full delta buffer) counts as an update error and the
// stream keeps its pace.
func (r *runner) updateLoop(stop <-chan struct{}, sent, errs *atomic.Int64) {
	apply, closeSink := r.dialUpdateSink(errs)
	if apply == nil {
		return
	}
	defer closeSink()
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
				if !r.applyOne(apply, workload.Update{Op: workload.UpdateDelete, Rule: u.Rule}, present, sent, errs) {
					return
				}
			}
			if !r.applyOne(apply, u, present, sent, errs) {
				return
			}
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

// applyOne sends one update and tracks site presence. A false return ends
// the replay loop (server can't apply updates, or we're stopping).
func (r *runner) applyOne(apply func(workload.Update) error, u workload.Update, present map[keys.Value]bool, sent, errs *atomic.Int64) bool {
	err := apply(u)
	sent.Add(1)
	if err != nil {
		errs.Add(1)
		var re *wire.RemoteError
		if errors.As(err, &re) && re.Code == wire.ErrNotImplemented {
			return false
		}
		if errors.Is(err, errUpdatesUnsupported) {
			return false
		}
		return true
	}
	switch u.Op {
	case workload.UpdateInsert:
		present[u.Rule.Prefix] = true
	case workload.UpdateDelete:
		present[u.Rule.Prefix] = false
	}
	return true
}

// errUpdatesUnsupported marks an HTTP 501 — the server has no update plane.
var errUpdatesUnsupported = errors.New("load: server does not support updates")

// dialUpdateSink opens the update connection for the configured protocol and
// returns the per-update apply function (nil if the dial failed).
func (r *runner) dialUpdateSink(errs *atomic.Int64) (apply func(workload.Update) error, closeSink func()) {
	if r.cfg.Proto == ProtoHTTP {
		client := r.httpClient()
		url := "http://" + r.cfg.Addr + "/update"
		return func(u workload.Update) error {
			body, err := json.Marshal(map[string]any{
				"op":     u.Op.String(),
				"prefix": hexKey(u.Rule.Prefix),
				"len":    u.Rule.Len,
				"action": u.Rule.Action,
			})
			if err != nil {
				return err
			}
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				return nil
			case http.StatusNotImplemented:
				return errUpdatesUnsupported
			default:
				return fmt.Errorf("update status %d", resp.StatusCode)
			}
		}, client.CloseIdleConnections
	}
	c, err := wire.Dial(r.cfg.Addr, 5*time.Second)
	if err != nil {
		errs.Add(1)
		return nil, func() {}
	}
	return func(u workload.Update) error {
		_, uerr := c.Update(wire.RuleUpdate{
			Op:     uint8(u.Op),
			Prefix: u.Rule.Prefix,
			Len:    u.Rule.Len,
			Action: u.Rule.Action,
		})
		return uerr
	}, func() { c.Close() }
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
