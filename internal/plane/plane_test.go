package plane

import (
	"strings"
	"testing"
)

// TestInferenceStringExhaustive fails the moment a new Inference variant is
// added without a name: every value below NumInference must render a
// non-empty, unique, lowercase spelling. Out-of-range values must fall back to
// the numbered form instead of silently borrowing another plane's name.
func TestInferenceStringExhaustive(t *testing.T) {
	seen := map[string]Inference{}
	for i := Inference(0); i < NumInference; i++ {
		s := i.String()
		if s == "" || strings.HasPrefix(s, "inference(") {
			t.Fatalf("Inference(%d) has no name: %q", i, s)
		}
		if s != strings.ToLower(s) {
			t.Errorf("Inference(%d) name %q is not lowercase", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("Inference(%d) and Inference(%d) share the name %q", prev, i, s)
		}
		seen[s] = i
	}
	if got := NumInference.String(); got != "inference(3)" {
		t.Errorf("out-of-range String() = %q, want numbered fallback", got)
	}
}

// TestStackConfigString covers every StackConfig the matrix enumerates plus
// the derived Combo spellings: one name per cell, no collisions, and the
// cached suffix composes rather than replaces.
func TestStackConfigString(t *testing.T) {
	want := map[string]bool{
		"compiled":         true,
		"reference":        true,
		"quantized":        true,
		"compiled+lcache":  true,
		"reference+lcache": true,
		"quantized+lcache": true,
	}
	got := map[string]bool{}
	for _, st := range Matrix() {
		s := st.String()
		if got[s] {
			t.Errorf("duplicate StackConfig name %q", s)
		}
		got[s] = true
		if st.Cached && !strings.HasSuffix(s, "+lcache") {
			t.Errorf("cached config %+v renders %q without +lcache suffix", st, s)
		}
		if !st.Cached && strings.Contains(s, "+lcache") {
			t.Errorf("uncached config %+v renders %q with +lcache suffix", st, s)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Matrix() renders %d names %v, want %d", len(got), got, len(want))
	}
	for s := range want {
		if !got[s] {
			t.Errorf("missing StackConfig name %q", s)
		}
	}

	combos := Combos()
	if len(combos) != 2*len(Matrix()) {
		t.Fatalf("Combos() has %d cells, want %d", len(combos), 2*len(Matrix()))
	}
	comboNames := map[string]bool{}
	for _, cb := range combos {
		s := cb.String()
		if comboNames[s] {
			t.Errorf("duplicate Combo name %q", s)
		}
		comboNames[s] = true
		topo, rest, ok := strings.Cut(s, "/")
		if !ok || topo != cb.Topology.String() || rest != cb.Stack.String() {
			t.Errorf("Combo name %q does not compose topology/stack", s)
		}
	}
}
