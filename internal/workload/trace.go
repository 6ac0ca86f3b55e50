package workload

import (
	"fmt"
	"math/rand"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
)

// TraceConfig shapes a synthetic query trace. It substitutes for the CAIDA
// Equinix-Chicago traces the paper replays (§10.1): flow popularity follows
// a Zipf law and packets exhibit strong temporal locality, the two
// properties that determine cache behaviour in the §10.2 methodology.
type TraceConfig struct {
	Queries int
	// ZipfS > 1 skews which destination ranges are popular (larger = more
	// skew). Values near 1.2 approximate flow-size distributions in
	// data-center traces.
	ZipfS float64
	// Locality is the probability a query repeats one of the last Window
	// destinations (temporal locality from packet bursts within flows).
	Locality float64
	Window   int
	Seed     int64
}

// DefaultTrace mirrors the evaluation settings: Zipf-popular destinations
// with bursty repetition.
func DefaultTrace(queries int, seed int64) TraceConfig {
	return TraceConfig{Queries: queries, ZipfS: 1.2, Locality: 0.6, Window: 256, Seed: seed}
}

// GenerateTrace synthesizes a query trace against the rule-set: each query
// is a key drawn from a Zipf-popular range of the rule-set's range array,
// with bursty re-use of recent keys.
func GenerateTrace(rs *lpm.RuleSet, cfg TraceConfig) ([]keys.Value, error) {
	if cfg.Queries < 1 {
		return nil, fmt.Errorf("workload: invalid query count %d", cfg.Queries)
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("workload: ZipfS must exceed 1, got %g", cfg.ZipfS)
	}
	if cfg.Locality < 0 || cfg.Locality > 1 {
		return nil, fmt.Errorf("workload: locality %g outside [0,1]", cfg.Locality)
	}
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	arr, err := ranges.Convert(rs)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Zipf over a random permutation of ranges, so popularity is not
	// correlated with address order.
	perm := rng.Perm(arr.Len())
	zipf := rand.NewZipf(rng, cfg.ZipfS, 8, uint64(arr.Len()-1))

	out := make([]keys.Value, 0, cfg.Queries)
	window := make([]keys.Value, 0, cfg.Window)
	for len(out) < cfg.Queries {
		var k keys.Value
		if len(window) > 0 && rng.Float64() < cfg.Locality {
			k = window[rng.Intn(len(window))]
		} else {
			r := perm[zipf.Uint64()]
			lo := arr.Low(r)
			hi := arr.High(r)
			k = randKeyBetween(rng, lo, hi)
		}
		out = append(out, k)
		if len(window) < cfg.Window {
			window = append(window, k)
		} else {
			window[len(out)%cfg.Window] = k
		}
	}
	return out, nil
}

// UniformTrace draws keys uniformly from the whole domain — the adversarial,
// locality-free load used for worst-case cache analysis (§10.2).
func UniformTrace(width, queries int, seed int64) []keys.Value {
	rng := rand.New(rand.NewSource(seed))
	dom := keys.NewDomain(width)
	out := make([]keys.Value, queries)
	for i := range out {
		out[i] = dom.FromUnit(rng.Float64())
	}
	return out
}

// randKeyBetween draws a near-uniform key in [lo, hi].
func randKeyBetween(rng *rand.Rand, lo, hi keys.Value) keys.Value {
	span := hi.Sub(lo)
	if span.Hi == 0 {
		if span.Lo == ^uint64(0) {
			return lo.AddUint64(rng.Uint64())
		}
		return lo.AddUint64(rng.Uint64() % (span.Lo + 1))
	}
	if span.Hi == ^uint64(0) {
		return keys.FromParts(rng.Uint64(), rng.Uint64())
	}
	for {
		v := keys.FromParts(rng.Uint64()%(span.Hi+1), rng.Uint64())
		if !span.Less(v) {
			return lo.Add(v)
		}
	}
}
