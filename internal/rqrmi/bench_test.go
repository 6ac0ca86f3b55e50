package rqrmi

import (
	"math/rand"
	"testing"

	"neurolpm/internal/keys"
)

// Micro-benchmarks isolating the compiled plane's two wins — flat
// coefficient banks for inference and devirtualized bounds for the
// secondary search — plus the quantized plane's fixed-point arithmetic
// against both. Run with -bench=Predict\|Search -benchmem.

func benchModel(b *testing.B, n int) (*Model, *Compiled, *Quantized, Index, []keys.Value) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	ix := skewedIndex(rng, 32, n)
	m, _, err := Train(ix, 32, quickConfig())
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compile(m, ix)
	if err != nil {
		b.Fatal(err)
	}
	q, err := CompileQuantized(m, ix)
	if err != nil {
		b.Fatal(err)
	}
	dom := keys.NewDomain(32)
	ks := make([]keys.Value, 4096)
	for i := range ks {
		ks[i] = dom.FromUnit(rng.Float64())
	}
	return m, c, q, ix, ks
}

func BenchmarkPredictReference(b *testing.B) {
	m, _, _, _, ks := benchModel(b, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(ks[i&4095])
	}
}

func BenchmarkPredictCompiled(b *testing.B) {
	_, c, _, _, ks := benchModel(b, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Predict(ks[i&4095])
	}
}

func BenchmarkPredictBatchCompiled(b *testing.B) {
	_, c, _, _, ks := benchModel(b, 4000)
	out := make([]Prediction, len(ks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ks) {
		c.PredictBatch(ks, out)
	}
}

func BenchmarkSearchReference(b *testing.B) {
	m, c, _, ix, ks := benchModel(b, 4000)
	preds := make([]Prediction, len(ks))
	c.PredictBatch(ks, preds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Search(ix, ks[i&4095], preds[i&4095])
	}
}

func BenchmarkSearchDevirtualized(b *testing.B) {
	_, c, _, _, ks := benchModel(b, 4000)
	preds := make([]Prediction, len(ks))
	c.PredictBatch(ks, preds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Search(ks[i&4095], preds[i&4095])
	}
}

func BenchmarkLookupCompiled(b *testing.B) {
	_, c, _, _, ks := benchModel(b, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := ks[i&4095]
		c.Search(k, c.Predict(k))
	}
}

func BenchmarkPredictQuantized(b *testing.B) {
	_, _, q, _, ks := benchModel(b, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Predict(ks[i&4095])
	}
}

func BenchmarkSearchQuantized(b *testing.B) {
	_, _, q, _, ks := benchModel(b, 4000)
	preds := make([]Prediction, len(ks))
	for i, k := range ks {
		preds[i] = q.Predict(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Search(ks[i&4095], preds[i&4095])
	}
}
