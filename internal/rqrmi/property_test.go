package rqrmi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"neurolpm/internal/keys"
)

// TestPropertyLookupExact: for random index layouts and random model
// configurations, every lookup (boundary keys and random keys) must resolve
// to Find's answer — training quality may vary, correctness may not.
func TestPropertyLookupExact(t *testing.T) {
	prop := func(seed int64, widthSel, layoutSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		widths := []int{12, 16, 24, 32, 64}
		width := widths[int(widthSel)%len(widths)]
		var ix *sliceIndex
		switch layoutSel % 3 {
		case 0:
			ix = uniformIndex(width, 100+rng.Intn(400))
		case 1:
			ix = skewedIndex(rng, width, 100+rng.Intn(400))
		default:
			// Adversarial: geometric gaps (heavy head, sparse tail).
			dom := keys.NewDomain(width)
			lows := []keys.Value{{}}
			u := 0.0
			for u < 0.9 {
				u += math.Pow(2, -float64(len(lows)%20)) * 0.01
				lows = append(lows, dom.FromUnit(u))
			}
			ix = &sliceIndex{lows: dedupe(lows)}
		}
		m, _, err := Train(ix, width, quickConfig())
		if err != nil {
			t.Logf("train: %v", err)
			return false
		}
		dom := keys.NewDomain(width)
		check := func(k keys.Value) bool {
			idx, _ := m.Lookup(ix, k)
			return idx == find(ix, k)
		}
		for i := 0; i < ix.Len(); i++ {
			if !check(ix.Low(i)) {
				return false
			}
			if !ix.Low(i).IsZero() && !check(ix.Low(i).Dec()) {
				return false
			}
		}
		for q := 0; q < 300; q++ {
			if !check(dom.FromUnit(rng.Float64())) {
				return false
			}
		}
		return check(dom.Max())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLUTMatchesMLP: compilation is semantics-preserving for
// arbitrary weights and for fitted ones.
func TestPropertyLUTMatchesMLP(t *testing.T) {
	prop := func(seed int64, fitted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMLP(rng)
		if fitted {
			m = fittedMLP(skewedIndex(rng, 20, 50+rng.Intn(400)), 20)
		} else {
			for k := 0; k < hiddenUnits; k++ {
				m.w1[k] = rng.NormFloat64() * 5
				m.b1[k] = rng.NormFloat64() * 2
				m.w2[k] = rng.NormFloat64() * 2
			}
			m.b2 = rng.NormFloat64()
		}
		lut := m.compile()
		if lut.Segments() > maxSegments {
			return false
		}
		for q := 0; q < 300; q++ {
			u := rng.Float64()*1.4 - 0.2 // include out-of-range inputs
			want := m.forward(u)
			got := float64(lut.eval(float32(u)))
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEvalMonotonePerSegment: within one segment, Eval is monotone
// in u — the assumption the analytical error-bound machinery rests on.
func TestPropertyEvalMonotonePerSegment(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMLP(rng)
		for k := 0; k < hiddenUnits; k++ {
			m.w1[k] = rng.NormFloat64() * 3
			m.b1[k] = rng.NormFloat64()
			m.w2[k] = rng.NormFloat64()
		}
		lut := m.compile()
		for s := 0; s < lut.Segments(); s++ {
			lo, hi := float32(-0.5), float32(1.5)
			if s > 0 {
				lo = lut.Knots[s-1]
			}
			if s < len(lut.Knots) {
				hi = lut.Knots[s]
			}
			if !(lo < hi) {
				continue
			}
			ascending := lut.A[s] >= 0
			// Segment s answers (lo, hi]. A sample that float32 rounding puts
			// on lo or past hi is answered by a neighbouring segment and says
			// nothing about this one (on a flat segment it differed by 1e-8
			// and failed one run in fifteen).
			var prev float32
			have := false
			for step := 0; step <= 20; step++ {
				u := lo + (hi-lo)*float32(step)/20
				if step == 0 {
					u = lo + (hi-lo)*1e-6
				}
				if !(lo < u && u <= hi) {
					continue
				}
				v := lut.eval(u)
				if have && (ascending && v < prev || !ascending && v > prev) {
					return false
				}
				prev, have = v, true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
