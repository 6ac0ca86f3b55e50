package rqrmi

import (
	"math"
	"sort"
)

// This file sets a submodel's weights without descending to them. A 1→8→1
// ReLU network is a continuous piecewise-linear function (§5.2.2), and what
// the secondary search pays for is its *maximum* distance from the index's
// step function, so the fit places the hinges directly: a greedy spline
// corridor over the responsibility's own boundaries (the construction the
// RadixSpline learned index builds its spline with), at the narrowest
// corridor eight units can follow. Nothing about correctness rests on it —
// errorBound measures whatever comes out.

// point is one boundary of the learned index: the float32 unit coordinate
// inference sees, widened, and the index of the entry that starts there.
type point struct{ x, y float64 }

// splineKnots walks pts (x strictly increasing) once and returns the knots of
// a continuous spline, all of them data points, that passes within eps of
// every point. It gives up, returning nil, as soon as the spline would need
// more than maxKnots.
func splineKnots(pts []point, eps float64, maxKnots int) []point {
	if len(pts) == 1 {
		return pts
	}
	base := pts[0]
	knots := []point{base}
	// The corridor: slopes from base that stay within eps of every point
	// since base.
	lo, hi := math.Inf(-1), math.Inf(1)
	for i := 1; i < len(pts); i++ {
		p := pts[i]
		if s := (p.y - base.y) / (p.x - base.x); s < lo || s > hi {
			// p left the corridor; the point before it was inside, so it
			// ends this segment and starts the next.
			base = pts[i-1]
			knots = append(knots, base)
			if len(knots) == maxKnots {
				return nil
			}
			lo, hi = math.Inf(-1), math.Inf(1)
		}
		dx := p.x - base.x
		if s := (p.y - eps - base.y) / dx; s > lo {
			lo = s
		}
		if s := (p.y + eps - base.y) / dx; s < hi {
			hi = s
		}
	}
	return append(knots, pts[len(pts)-1])
}

// fitMLP returns the network whose output, times n, follows pts as closely
// as hiddenUnits segments can: the corridor half-width is bisected down to
// the smallest whole number of index entries that needs no more segments
// than there are units. Unit k is the hinge at knot k carrying the change of
// slope there; unit 0 sits on the responsibility's left edge, so it is on
// for every input the submodel is asked about and carries the base line.
func fitMLP(pts []point, n int) *mlp {
	fits := func(eps int) []point { return splineKnots(pts, float64(eps), hiddenUnits+1) }
	// One segment from first to last point is within the points' own rise.
	rise := int(pts[len(pts)-1].y-pts[0].y) + 1
	knots := fits(sort.Search(rise, func(eps int) bool { return fits(eps) != nil }))

	m := &mlp{b2: knots[0].y / float64(n)}
	prev := 0.0
	for k := 0; k+1 < len(knots); k++ {
		slope := (knots[k+1].y - knots[k].y) / (knots[k+1].x - knots[k].x) / float64(n)
		m.w1[k], m.b1[k], m.w2[k] = 1, -knots[k].x, slope-prev
		prev = slope
	}
	return m
}
