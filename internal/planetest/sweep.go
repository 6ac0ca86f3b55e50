package planetest

import (
	"fmt"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/shard"
)

// sweepBlock is the batch Sweep hands LookupBatch: the width the serving path
// sees from a wire request.
const sweepBlock = 256

// Sweep checks u on every key of its domain, ascending, against live — the
// rule-set u holds, which the caller keeps beside its updates:
//
//   - every key through LookupBatch, a block at a time, and through Lookup;
//   - every key's compiled search on the engine of its shard — Predict, then
//     Search's index and derived probe count — against the model's own
//     Predict and Model.Search, which count the canonical loop's probes.
//
// The answers are read off a cursor over live's range list, moved beside the
// keys, so the trie is consulted once a range, not once a key: before the
// sweep every range's low and high are held against it, so the list the
// sweep trusts does not rest on ranges.Convert alone. The first mismatch is
// returned with its key, shard, submodel, window and bucket. The domain must
// be at most 32 bits wide: every key is visited.
func Sweep(u *shard.ShardedUpdatable, live *lpm.RuleSet) error {
	width := u.Width()
	if width > 32 || live.Width != width {
		return fmt.Errorf("sweep: width %d (rule-set %d): at most 32 bits, and the same", width, live.Width)
	}
	ra, err := ranges.Convert(live)
	if err != nil {
		return err
	}
	n := ra.Len()
	top := uint64(1)<<width - 1
	high := func(i int) uint64 { // range i's last key
		if i+1 < n {
			return ra.Low(i+1).Lo - 1
		}
		return top
	}
	oracle := lpm.NewTrieMatcher(live)
	for i := range n {
		a, ok := ra.Action(i)
		for _, k := range []uint64{ra.Low(i).Lo, high(i)} {
			if b, bok := oracle.Lookup(keys.FromUint64(k)); b != a || bok != ok {
				return fmt.Errorf("sweep: range %d [%d, %d] answers (%d,%v), the trie (%d,%v) at %d",
					i, ra.Low(i).Lo, high(i), a, ok, b, bok, k)
			}
		}
	}

	var (
		ks  = make([]keys.Value, 0, sweepBlock)
		out []shard.Result
		r   = 0 // the range holding the block's key under the cursor
	)
	for start := uint64(0); start <= top; start += sweepBlock {
		ks = ks[:0]
		for k := start; k <= min(start+sweepBlock-1, top); k++ {
			ks = append(ks, keys.FromUint64(k))
		}
		out = u.LookupBatchInto(ks, out)
		for i, k := range ks {
			for high(r) < k.Lo {
				r++
			}
			var want shard.Result
			want.Action, want.Matched = ra.Action(r)
			if got := out[i]; got != want {
				return sweepMismatch(u, k, "LookupBatch", got, want)
			}
			if a, ok := u.Lookup(k); a != want.Action || ok != want.Matched {
				return sweepMismatch(u, k, "Lookup", shard.Result{Action: a, Matched: ok}, want)
			}
			if err := searchIsTheModels(u, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// searchIsTheModels holds the compiled plane of k's shard to its model on k:
// the same prediction, and Search's index and derived probe count equal to
// Model.Search's over the index the model learned.
func searchIsTheModels(u *shard.ShardedUpdatable, k keys.Value) error {
	e := u.Engine(u.ShardOf(k))
	var ix rqrmi.Index = e.Ranges()
	if d := e.Directory(); d != nil {
		ix = d
	}
	c, m := e.Compiled(), e.Model()
	p := c.Predict(k)
	idx, probes := c.Search(k, p)
	pm := m.Predict(k)
	im, probesM := m.Search(ix, k, pm)
	if p != pm || idx != im || probes != probesM {
		lo, hi := c.Window(p)
		return fmt.Errorf("sweep: key %v, shard %d, submodel %d, window [%d, %d]: compiled prediction %+v searched to bucket %d in %d probes; model %+v, %d in %d",
			k, u.ShardOf(k), p.Submodel, lo, hi, p, idx, probes, pm, im, probesM)
	}
	return nil
}

// sweepMismatch reports a wrong answer with where the engine looked for it.
func sweepMismatch(u *shard.ShardedUpdatable, k keys.Value, path string, got, want shard.Result) error {
	c := u.Engine(u.ShardOf(k)).Compiled()
	p := c.Predict(k)
	lo, hi := c.Window(p)
	return fmt.Errorf("sweep: key %v, shard %d, submodel %d, window [%d, %d], bucket %d: %s answered %+v, the range list %+v",
		k, u.ShardOf(k), p.Submodel, lo, hi, c.Locate(k, p), path, got, want)
}
