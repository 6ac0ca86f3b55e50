package rqrmi

import "slices"

// hiddenUnits is the hidden-layer width of every submodel: the paper uses
// eight fully-connected perceptrons with ReLU activation (§2.2).
const hiddenUnits = 8

// mlp is a 1→8→1 multi-layer perceptron over the unit input u. Its weights
// are set in float64 by the spline fit (fit.go); the network is then compiled
// into a LUT for float32 inference.
type mlp struct {
	w1, b1 [hiddenUnits]float64
	w2     [hiddenUnits]float64
	b2     float64
}

// forward computes the network output at u.
func (m *mlp) forward(u float64) float64 {
	y := m.b2
	for k := 0; k < hiddenUnits; k++ {
		if h := m.w1[k]*u + m.b1[k]; h > 0 {
			y += m.w2[k] * h
		}
	}
	return y
}

// compile converts the network into its exact piecewise-linear LUT (paper
// §5.2.2): within segment s, y = A[s]·u + B[s]. Coefficients are computed in
// float64 and stored as float32; the error-bound analysis runs against the
// stored float32 values, so the rounding here can never break query
// correctness.
func (m *mlp) compile() LUT {
	// Hinge locations: u_k = −b1/w1 where the ReLU flips.
	var hinges []float64
	for k := 0; k < hiddenUnits; k++ {
		if m.w1[k] != 0 {
			hinges = append(hinges, -m.b1[k]/m.w1[k])
		}
	}
	slices.Sort(hinges)
	hinges = slices.Compact(hinges)

	var lut LUT
	// Segment s covers u ∈ (hinges[s−1], hinges[s]].
	for s := 0; s <= len(hinges); s++ {
		// Pick a probe point inside the segment to determine the active set.
		var probe float64
		switch {
		case len(hinges) == 0:
			probe = 0
		case s == 0:
			probe = hinges[0] - 1
		case s == len(hinges):
			probe = hinges[len(hinges)-1] + 1
		default:
			probe = (hinges[s-1] + hinges[s]) / 2
		}
		a, b := 0.0, m.b2
		for k := 0; k < hiddenUnits; k++ {
			if m.w1[k]*probe+m.b1[k] > 0 {
				a += m.w2[k] * m.w1[k]
				b += m.w2[k] * m.b1[k]
			}
		}
		lut.A = append(lut.A, float32(a))
		lut.B = append(lut.B, float32(b))
		if s < len(hinges) {
			lut.Knots = append(lut.Knots, float32(hinges[s]))
		}
	}
	return lut
}
