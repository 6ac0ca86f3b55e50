package telemetry

import "sync/atomic"

// Counter is a lock-free monotonic counter: a Tally of one lane. The zero
// value is not usable; create with newCounter or through a Registry.
type Counter struct{ t Tally }

// newCounter returns a standalone (unregistered) counter.
func newCounter() *Counter { return &Counter{*NewTally()} }

// Inc adds one.
func (c *Counter) Inc() { c.t.Stripe().Add(0, 1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.t.Stripe().Add(0, n) }

// numLanes is the number of outcome lanes in a Tally.
const numLanes = 4

// TallyStripe is one stripe of a Tally: its lanes share one cache line, and
// writers on different stripes never share a coherence granule.
type TallyStripe struct {
	lane    [numLanes]atomic.Uint64
	claimed atomic.Uint64 // the last tick claim took, above its stride's gen byte
	_       [cacheLine - 8*numLanes - 8]byte
}

// Add books n events of outcome lane and returns the lane's new total on the
// stripe: the lane tick of the last of them. A lane's ticks run 1, 2, 3, …
// however many goroutines book it, so sampling on them is exact.
func (s *TallyStripe) Add(lane int, n uint64) uint64 { return s.lane[lane].Add(n) }

// Tick is one more than the sum of the stripe's lanes, read with plain loads:
// the stripe tick of the next event booked, as far as the reader can tell,
// for a sampler that must decide before the event is booked. Bookers sharing
// the stripe can read one tick twice or skip one; claim gives each sampled
// tick to one of them whatever they read.
func (s *TallyStripe) Tick() uint64 {
	return s.lane[0].Load() + s.lane[1].Load() + s.lane[2].Load() + s.lane[3].Load() + 1
}

// claim takes tick t for the stripe's one claiming sampler, whose stride has
// mask m, if a tick on that stride lies past the last tick taken and up to t:
// three loads and a compare, then a compare-and-swap when one does. So each
// stride tick goes to at most one caller, and only to one whose event follows
// it. gen names the stride (its low byte is kept with the tick); a tick taken
// under another stride reaches back no further than t itself.
func (s *TallyStripe) claim(m, gen, t uint64) bool {
	last := s.claimed.Load()
	from := last >> 8
	if last&0xff != gen&0xff {
		from = t - 1
	}
	return from|m != t|m && t > from && s.claimed.CompareAndSwap(last, t<<8|gen&0xff)
}

// due is claim's test without the write, against the last tick taken under
// any stride: one load and a compare.
func (s *TallyStripe) due(m, t uint64) bool { return (s.claimed.Load()>>8)|m != t|m }

// Tally is a lock-free counter of exclusive outcome lanes, striped: an event
// books one lane, and one uncontended add buys every sum of lanes.
type Tally struct {
	stripes []TallyStripe
}

// NewTally returns a tally with every lane at zero.
func NewTally() *Tally {
	return &Tally{stripes: make([]TallyStripe, numShards)}
}

// Stripe is the calling goroutine's stripe.
func (t *Tally) Stripe() *TallyStripe { return &t.stripes[shardIndex()] }

// load returns every lane's total. Concurrent with writers it is a
// consistent-enough snapshot: every completed Add is included.
func (t *Tally) load() (lanes [numLanes]uint64) {
	for i := range t.stripes {
		for l := range lanes {
			lanes[l] += t.stripes[i].lane[l].Load()
		}
	}
	return lanes
}
