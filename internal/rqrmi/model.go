// Package rqrmi implements the Range-Query Recursive Model Index used by
// NeuroLPM: a three-stage hierarchy of tiny neural networks that learns the
// location of sorted, non-overlapping ranges and answers queries with a
// guaranteed error bound (paper §2.2, §5.2).
//
// Inference follows the paper's lookup-table design (§5.2.2): each trained
// 1→8→1 MLP submodel is a piecewise-linear function with at most nine linear
// segments, so it is compiled offline into a table of (knot, slope,
// intercept) triples. A query then needs only a segment lookup plus one
// multiply-accumulate — four floating-point operations instead of 26 — and
// produces exactly the arithmetic against which the error bounds were
// computed, so query correctness is preserved without quantization.
package rqrmi

import (
	"fmt"
	"math"

	"neurolpm/internal/keys"
)

// Index is the sorted array the model learns: Low(i) are strictly
// increasing lower bounds with Low(0) equal to the domain minimum. Both the
// range array and the bucket directory satisfy it.
type Index interface {
	Len() int
	Low(i int) keys.Value
}

// find returns the index of the entry containing k: the greatest i with
// Low(i) ≤ k. It is the training-time oracle for target indexes.
func find(ix Index, k keys.Value) int {
	idx, _ := keys.BoundedSearch(k, 0, ix.Len()-1, ix.Low)
	return idx
}

// LUT is one compiled submodel: a piecewise-linear function over the unit
// input u. Segment s covers (Knots[s-1], Knots[s]] with value A[s]·u + B[s];
// Knots has len(A)−1 interior knots in ascending order.
//
// Err is the submodel's prediction error bound, valid for every input the
// model routes to this submodel (final stage only; zero for internal
// stages).
type LUT struct {
	Knots []float32
	A, B  []float32
	Err   int32
}

// eval computes the piecewise-linear value at u using the same float32
// multiply-accumulate the hardware performs.
func (l *LUT) eval(u float32) float32 {
	s := 0
	for s < len(l.Knots) && u > l.Knots[s] {
		s++
	}
	return l.A[s]*u + l.B[s]
}

// sizeBytes is the parameter-buffer footprint of the submodel: one float32
// per knot plus two per segment, plus the 4-byte error bound.
func (l *LUT) sizeBytes() int {
	return 4*len(l.Knots) + 8*len(l.A) + 4
}

// constLUT builds a single-segment LUT with constant value v (used for
// submodels with empty responsibility).
func constLUT(v float32) LUT {
	return LUT{A: []float32{0}, B: []float32{v}}
}

// Model is a trained RQRMI model over an Index of N entries in a width-bit
// key domain.
type Model struct {
	Width  int
	N      int
	Stages [][]LUT // Stages[s][j]; len(Stages[0]) == 1
}

// Prediction is the result of RQRMI inference for one key.
type Prediction struct {
	Index    int // estimated index into the learned Index
	Err      int // error bound: the true index lies in [Index−Err, Index+Err]
	Submodel int // final-stage submodel used (for stats / hwsim)
}

// scaleClamp maps a submodel output y to an integer slot in [0, n).
// The float32 arithmetic here is part of the "inference contract": error
// bounds are computed by running this exact code.
func scaleClamp(y float32, n int) int {
	if !(y > 0) { // catches y ≤ 0 and NaN
		return 0
	}
	if y >= 1 {
		return n - 1
	}
	i := int(y * float32(n))
	if i >= n { // guard float32 rounding at the top edge
		i = n - 1
	}
	return i
}

// unitOf maps a key to the model's float32 input coordinate.
func unitOf(width int, k keys.Value) float32 {
	return float32(keys.NewDomain(width).ToUnit(k))
}

// Predict runs full RQRMI inference for key k.
func (m *Model) Predict(k keys.Value) Prediction {
	u := unitOf(m.Width, k)
	cur := 0
	last := len(m.Stages) - 1
	for s := 0; ; s++ {
		lut := &m.Stages[s][cur]
		y := lut.eval(u)
		if s == last {
			return Prediction{
				Index:    scaleClamp(y, m.N),
				Err:      int(lut.Err),
				Submodel: cur,
			}
		}
		cur = scaleClamp(y, len(m.Stages[s+1]))
	}
}

// Lookup performs the complete query against the learned Index: inference
// followed by the bounded secondary search. It returns the true index of
// the entry containing k and the number of index probes the binary search
// made.
func (m *Model) Lookup(ix Index, k keys.Value) (idx, probes int) {
	return m.Search(ix, k, m.Predict(k))
}

// Search runs the bounded secondary search for k given its prediction p
// (which must come from Predict on the same key). Splitting inference from
// the search lets callers that need the Prediction — the engine's
// instrumented lookup, the hardware simulator — run inference exactly once.
func (m *Model) Search(ix Index, k keys.Value, p Prediction) (idx, probes int) {
	lo, hi := p.Index-p.Err, p.Index+p.Err
	if lo < 0 {
		lo = 0
	}
	if hi > ix.Len()-1 {
		hi = ix.Len() - 1
	}
	return keys.BoundedSearch(k, lo, hi, ix.Low)
}

// validate checks structural invariants: stage widths, knot ordering, and
// segment-count limits (≤ 9 segments for an 8-neuron hidden layer, §5.2.2).
func (m *Model) validate() error {
	if len(m.Stages) == 0 {
		return fmt.Errorf("rqrmi: model has no stages")
	}
	if len(m.Stages[0]) != 1 {
		return fmt.Errorf("rqrmi: stage 0 must have exactly one submodel, has %d", len(m.Stages[0]))
	}
	if m.N <= 0 {
		return fmt.Errorf("rqrmi: invalid N=%d", m.N)
	}
	for s, stage := range m.Stages {
		if len(stage) == 0 {
			return fmt.Errorf("rqrmi: stage %d is empty", s)
		}
		for j := range stage {
			l := &stage[j]
			if len(l.A) == 0 || len(l.A) != len(l.B) || len(l.Knots) != len(l.A)-1 {
				return fmt.Errorf("rqrmi: stage %d submodel %d: inconsistent LUT shape", s, j)
			}
			if len(l.A) > maxSegments {
				return fmt.Errorf("rqrmi: stage %d submodel %d: %d segments exceeds %d", s, j, len(l.A), maxSegments)
			}
			for i := 1; i < len(l.Knots); i++ {
				if !(l.Knots[i-1] <= l.Knots[i]) {
					return fmt.Errorf("rqrmi: stage %d submodel %d: knots out of order", s, j)
				}
			}
			for i := range l.A {
				if math.IsNaN(float64(l.A[i])) || math.IsNaN(float64(l.B[i])) {
					return fmt.Errorf("rqrmi: stage %d submodel %d: NaN coefficient", s, j)
				}
			}
			if l.Err < 0 {
				return fmt.Errorf("rqrmi: stage %d submodel %d: negative error bound", s, j)
			}
		}
	}
	return nil
}

// maxSegments is the segment limit per submodel: 8 hidden ReLUs yield at
// most 9 linear segments.
const maxSegments = 9

// SizeBytes returns the total parameter footprint of the model — the
// quantity the paper reports as 8KB for the 1/4/64 configuration.
func (m *Model) SizeBytes() int {
	total := 0
	for _, stage := range m.Stages {
		for j := range stage {
			total += stage[j].sizeBytes()
		}
	}
	return total
}

// MaxErr returns the largest final-stage error bound.
func (m *Model) MaxErr() int {
	max := 0
	for j := range m.Stages[len(m.Stages)-1] {
		if e := int(m.Stages[len(m.Stages)-1][j].Err); e > max {
			max = e
		}
	}
	return max
}

// StageWidths returns the number of submodels per stage.
func (m *Model) StageWidths() []int {
	w := make([]int, len(m.Stages))
	for i, s := range m.Stages {
		w[i] = len(s)
	}
	return w
}
