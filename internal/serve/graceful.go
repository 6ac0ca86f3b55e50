package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// DefaultDrainTimeout bounds how long ServeUnits waits for in-flight requests
// after a shutdown signal before forcing connections closed.
const DefaultDrainTimeout = 10 * time.Second

// Unit is one drainable serving surface — the HTTP listener, the wire
// listener — run together under ServeUnits so one SIGINT/SIGTERM drains them
// all. Serve blocks until the unit stops (returning the error that broke its
// accept loop); Shutdown stops accepting, lets in-flight work finish within
// the context's deadline, and makes Serve return.
type Unit interface {
	Serve() error
	Shutdown(ctx context.Context) error
}

// HTTPUnit adapts an http.Server + listener to the Unit interface.
type HTTPUnit struct {
	Listener net.Listener
	Handler  http.Handler

	once sync.Once
	srv  *http.Server
}

// server lazily builds the http.Server so Shutdown is safe even if it wins
// the race against the Serve goroutine (http.Server tolerates Shutdown
// before Serve: the later Serve returns ErrServerClosed immediately).
func (u *HTTPUnit) server() *http.Server {
	u.once.Do(func() { u.srv = &http.Server{Handler: u.Handler} })
	return u.srv
}

// Serve runs the HTTP accept loop until Shutdown or an accept error. The
// http.ErrServerClosed sentinel from a clean Shutdown is translated to nil so
// ServeUnits treats a drained unit as success.
func (u *HTTPUnit) Serve() error {
	if err := u.server().Serve(u.Listener); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown drains in-flight HTTP requests within ctx's deadline.
func (u *HTTPUnit) Shutdown(ctx context.Context) error { return u.server().Shutdown(ctx) }

// ServeUnits runs every unit until an error or a value on stop, then drains
// them all concurrently within drainTimeout. Any unit failing its accept loop
// stops the whole group (remaining units are shut down before returning, so
// a dead wire listener does not leave HTTP half-alive). A clean stop-and-drain
// returns nil.
//
// The stop channel is generic so callers pass a signal.Notify channel
// (SIGINT/SIGTERM in cmd/lpmserve) and tests pass a plain channel.
func ServeUnits(stop <-chan os.Signal, drainTimeout time.Duration, units ...Unit) error {
	if drainTimeout <= 0 {
		drainTimeout = DefaultDrainTimeout
	}
	errc := make(chan error, len(units))
	for _, u := range units {
		go func() { errc <- u.Serve() }()
	}
	var firstErr error
	running := len(units)
	select {
	case firstErr = <-errc:
		running--
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Shut every unit down concurrently — a slow HTTP drain must not eat the
	// wire listener's share of the timeout (and vice versa).
	shutErrs := make(chan error, len(units))
	for _, u := range units {
		go func() { shutErrs <- u.Shutdown(ctx) }()
	}
	for range units {
		if err := <-shutErrs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Collect the remaining Serve returns; a unit that exited cleanly after
	// Shutdown reports nil.
	for ; running > 0; running-- {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
