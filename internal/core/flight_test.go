package core

import (
	"math/rand"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/telemetry"
)

// TestFlightRecordsFlowFromLookup checks the end-to-end sampling contract:
// with a 1:1 stride every lookup commits a flight record whose fields agree
// with the engine's own answer.
func TestFlightRecordsFlowFromLookup(t *testing.T) {
	rs := randomRuleSet(t, 32, 2000, 9)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	prev := telemetry.Flight.SampleEvery()
	defer telemetry.Flight.SetSampleEvery(prev)
	telemetry.Flight.SetSampleEvery(1)

	rng := rand.New(rand.NewSource(11))
	before := telemetry.Flight.Recorded()
	k := randomKey(rng, 32)
	action, matched := e.Lookup(k)
	if telemetry.Flight.Recorded() != before+1 {
		t.Fatalf("recorded went %d → %d, want +1 at stride 1", before, telemetry.Flight.Recorded())
	}
	rec := telemetry.Flight.Recent(1)[0]
	if rec.KeyLo != k.Lo || rec.KeyHi != k.Hi {
		t.Fatalf("record key %x:%x, want %x:%x", rec.KeyHi, rec.KeyLo, k.Hi, k.Lo)
	}
	if rec.Matched != matched || rec.Action != action {
		t.Fatalf("record (matched=%v action=%d) disagrees with lookup (matched=%v action=%d)",
			rec.Matched, rec.Action, matched, action)
	}
	if rec.TotalNs <= 0 {
		t.Fatalf("TotalNs = %d, want > 0", rec.TotalNs)
	}
	if rec.ErrBound < 0 || rec.Probes < 0 {
		t.Fatalf("negative bound/probes: %+v", rec)
	}
	// The stage stamps must not exceed the committed total.
	var sum int64
	for _, ns := range rec.StageNs {
		sum += ns
	}
	if sum > rec.TotalNs {
		t.Fatalf("stage sum %d > total %d", sum, rec.TotalNs)
	}

	// Batched lookups sample too, tagged as batch records.
	before = telemetry.Flight.Recorded()
	ks := make([]keys.Value, 64)
	for i := range ks {
		ks[i] = randomKey(rng, 32)
	}
	e.LookupBatch(ks, nil)
	if telemetry.Flight.Recorded() != before+64 {
		t.Fatalf("batch recorded %d, want 64", telemetry.Flight.Recorded()-before)
	}
	if rec := telemetry.Flight.Recent(1)[0]; !rec.Batch {
		t.Fatal("batch lookup committed a record without the Batch tag")
	}
}

// TestSampledLookupZeroAllocs: the tentpole's allocation-free claim — even a
// lookup that takes the sampled branch (record, stamps, ring commit) must not
// allocate; the FlightRecord lives on the lookup's stack and moves by copy.
func TestSampledLookupZeroAllocs(t *testing.T) {
	rs := randomRuleSet(t, 32, 2000, 10)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	prev := telemetry.Flight.SampleEvery()
	defer telemetry.Flight.SetSampleEvery(prev)
	telemetry.Flight.SetSampleEvery(1) // every lookup takes the sampled path

	rng := rand.New(rand.NewSource(12))
	ks := make([]keys.Value, 256)
	for i := range ks {
		ks[i] = randomKey(rng, 32)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Lookup(ks[i&255])
		i++
	}); allocs != 0 {
		t.Fatalf("sampled lookup allocates %v objects per call, want 0", allocs)
	}
}
