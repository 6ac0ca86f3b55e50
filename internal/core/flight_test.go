package core

import (
	"math/rand"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/rqrmi"
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

	// Batched lookups sample too, tagged as batch records. At stride 4 every
	// block of the batch has four sampled keys among twelve that are not: a
	// sampled key is searched again by itself after the block's lockstep
	// search, and its record must say what the single-key path says of it.
	telemetry.Flight.SetSampleEvery(4)
	before = telemetry.Flight.Recorded()
	ks := make([]keys.Value, 64)
	at := map[keys.Value]int{}
	for i := range ks {
		ks[i] = randomKey(rng, 32)
		at[ks[i]] = i
	}
	e.LookupBatch(ks, nil)
	if got := telemetry.Flight.Recorded() - before; got != 16 {
		t.Fatalf("batch recorded %d, want 16 (64 keys at stride 4)", got)
	}
	recs := telemetry.Flight.Recent(16)
	telemetry.Flight.SetSampleEvery(0)
	perBlock := map[int]int{}
	for _, rec := range recs {
		k := keys.FromParts(rec.KeyHi, rec.KeyLo)
		i, ok := at[k]
		if !ok || !rec.Batch {
			t.Fatalf("record %+v: not a Batch record of this batch's keys", rec)
		}
		perBlock[i/rqrmi.Block]++
		tr := e.LookupMem(k, cachesim.Null{})
		if int(rec.Probes) != tr.SRAMProbes || int(rec.ErrBound) != tr.Prediction.Err ||
			rec.Action != tr.Action || rec.Matched != tr.Matched {
			t.Fatalf("batch record of %v (probes %d, bound %d, action %d, matched %v) disagrees with its single-key trace %+v",
				k, rec.Probes, rec.ErrBound, rec.Action, rec.Matched, tr)
		}
	}
	for b := 0; b < len(ks)/rqrmi.Block; b++ {
		if perBlock[b] < 2 {
			t.Fatalf("block %d has %d sampled keys, want at least 2", b, perBlock[b])
		}
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
