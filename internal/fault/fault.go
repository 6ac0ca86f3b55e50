// Package fault is the deterministic fault-injection plane for the update
// path (DESIGN.md §11). The paper's §6.5 update story — modify in place, or
// retrain and swap atomically — has its failure surface in the rebuild (the
// CRAM lens observation: rebuilds, not lookups, are what fails at
// large-database scale), so what a failed rebuild leaves behind must be
// provable, not asserted. An Injector is a seedable, thread-safe decision
// source that the update path consults at named sites; production builds
// leave core.Config.Fault nil and pay one nil-check per rebuild or Compact,
// nothing on the query path. A failed rebuild fails no write: every insert
// has landed in place before Compact decides to retrain.
//
// Faults are modelled per site as any combination of
//
//   - a latency (retrain latency spikes, shard-swap stalls): Fire sleeps;
//   - an armed failure count (FailNext): the next n fires error;
//   - a failure probability (FailProb): each fire errors with probability p
//     drawn from the injector's own deterministic splitmix64 stream.
//
// Errors returned by Fire wrap ErrInjected, so tests and recovery logic can
// classify injected failures with errors.Is.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Site names one injection point in the update path.
type Site string

const (
	// SiteRetrain fires at the start of every rebuild — a Commit's, or an
	// overgrown engine's Compact; an error models a failed rebuild, a latency
	// models a retrain spike. (core.Engine.Rebuild)
	SiteRetrain Site = "retrain"
	// SiteSwap fires after a successful retrain, immediately before the
	// atomic engine swap; a latency models a stalled swap, an error
	// aborts the rebuild with the new engine discarded.
	SiteSwap Site = "swap"
	// SiteCompact fires on every Compact of an engine that is not overgrown
	// (core's Engine.Compact, which a writer calls after each write); Compact
	// rebuilds when it fires, as it does for an overgrown engine. It is how a
	// test about the rebuild path reaches it on an engine that would
	// otherwise keep absorbing.
	SiteCompact Site = "compact"
)

// Hook is the decision function the engine consults at each site. A nil
// Hook (the production configuration) disables injection entirely. The
// returned error, if any, is the injected failure.
type Hook func(site Site) error

// ErrInjected is the root of every injector-produced failure.
var ErrInjected = errors.New("fault: injected failure")

// siteConfig is one site's arming state.
type siteConfig struct {
	failNext int           // fail the next n fires (consumed first)
	prob     float64       // then fail each fire with this probability
	latency  time.Duration // sleep on every fire, failing or not
	fired    uint64        // total fires observed
	failed   uint64        // fires that returned an error
}

// Injector is a seedable fault source. All methods are safe for concurrent
// use; the random stream is its own splitmix64 sequence, so two injectors
// with the same seed and the same fire order make identical decisions
// regardless of what the global math/rand state looks like.
type Injector struct {
	mu    sync.Mutex
	state uint64 // splitmix64 state
	sites map[Site]*siteConfig
}

// NewInjector returns an injector whose probabilistic decisions derive from
// seed alone.
func NewInjector(seed uint64) *Injector {
	return &Injector{state: seed, sites: make(map[Site]*siteConfig)}
}

// site returns (creating if needed) s's config; callers hold in.mu.
func (in *Injector) site(s Site) *siteConfig {
	c, ok := in.sites[s]
	if !ok {
		c = &siteConfig{}
		in.sites[s] = c
	}
	return c
}

// FailNext arms site s to fail its next n fires (deterministically,
// regardless of seed). n ≤ 0 disarms the counter.
func (in *Injector) FailNext(s Site, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.site(s).failNext = max(n, 0)
}

// FailProb sets site s's per-fire failure probability (clamped to [0,1]).
// FailNext arming, when present, is consumed first.
func (in *Injector) FailProb(s Site, p float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.site(s).prob = min(max(p, 0), 1)
}

// SetLatency makes every fire of site s sleep d before deciding (the
// latency-spike and stall faults). d ≤ 0 clears it.
func (in *Injector) SetLatency(s Site, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.site(s).latency = max(d, 0)
}

// Clear disarms site s completely (counters of past fires are kept).
func (in *Injector) Clear(s Site) {
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.site(s)
	c.failNext, c.prob, c.latency = 0, 0, 0
}

// Fired returns how many times site s has fired and how many of those
// fires were injected failures.
func (in *Injector) Fired(s Site) (fired, failed uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.site(s)
	return c.fired, c.failed
}

// Hook adapts the injector to the core.Config hook shape.
func (in *Injector) Hook() Hook { return in.Fire }

// Fire consults site s: it sleeps the configured latency (outside the
// injector lock), then returns an ErrInjected-wrapping error if the site's
// arming says this fire fails.
func (in *Injector) Fire(s Site) error {
	in.mu.Lock()
	c := in.site(s)
	c.fired++
	latency := c.latency
	fail := false
	switch {
	case c.failNext > 0:
		c.failNext--
		fail = true
	case c.prob > 0:
		fail = in.rand() < c.prob
	}
	if fail {
		c.failed++
	}
	in.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	if fail {
		return fmt.Errorf("%s: %w", s, ErrInjected)
	}
	return nil
}

// rand draws the next [0,1) float from the splitmix64 stream; callers hold
// in.mu.
func (in *Injector) rand() float64 {
	in.state += 0x9E3779B97F4A7C15
	z := in.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
