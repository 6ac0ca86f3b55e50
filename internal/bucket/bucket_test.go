package bucket

import (
	"math/rand"
	"sort"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
)

// bucketOf is the bucket whose range span holds k: the greatest b with
// d.Low(b) ≤ k.
func bucketOf(d *Directory, k keys.Value) int {
	b, _ := keys.BoundedSearch(k, 0, d.Len()-1, d.Low)
	return b
}

func buildArray(t testing.TB, width, nRules int, seed int64) *ranges.Array {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type pl struct {
		p keys.Value
		l int
	}
	seen := map[pl]bool{}
	var rules []lpm.Rule
	for len(rules) < nRules {
		length := 1 + rng.Intn(width)
		prefix := keys.FromUint64(rng.Uint64() & (uint64(1)<<(width-1)<<1 - 1))
		prefix = prefix.Shr(uint(width - length)).Shl(uint(width - length))
		k := pl{prefix, length}
		if seen[k] {
			continue
		}
		seen[k] = true
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: uint64(rng.Intn(64))})
	}
	s, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ranges.Convert(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// paperExample reproduces §7.1's structure: four ranges in buckets of size 2
// give a directory of two. The paper's array is [1-3],[4-5],[6-10],[11-15];
// ours is converted from rules and covers the whole domain, and [11-15] is no
// union of prefixes a range can own, so the rules 01**, 1*** and 11** give
// [0-3],[4-7],[8-11],[12-15] and the directory [0-7],[8-15].
func paperExample(t *testing.T) (*ranges.Array, *Directory) {
	t.Helper()
	s, err := lpm.NewRuleSet(4, []lpm.Rule{
		{Prefix: keys.FromUint64(0b0100), Len: 2, Action: 1},
		{Prefix: keys.FromUint64(0b1000), Len: 1, Action: 2},
		{Prefix: keys.FromUint64(0b1100), Len: 2, Action: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ranges.Convert(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 {
		t.Fatalf("%d ranges, want 4", a.Len())
	}
	d, err := Build(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	return a, d
}

func TestPaperBucketExample(t *testing.T) {
	a, d := paperExample(t)
	if d.Len() != 2 {
		t.Fatalf("directory size = %d", d.Len())
	}
	// Input 9 → matching bucket range is the one starting at 8.
	b := bucketOf(d, keys.FromUint64(9))
	if d.Low(b) != keys.FromUint64(8) {
		t.Fatalf("bucket low = %v", d.Low(b))
	}
	idx, _ := d.Search(b, keys.FromUint64(9))
	if a.Low(idx) != keys.FromUint64(8) {
		t.Fatalf("found range low %v", a.Low(idx))
	}
	// Input 13 lies in the same bucket's second range.
	if idx, _ := d.Search(b, keys.FromUint64(13)); a.Low(idx) != keys.FromUint64(12) {
		t.Fatalf("found range low %v", a.Low(idx))
	}
}

func TestBuildRejectsSmallK(t *testing.T) {
	a := buildArray(t, 16, 50, 1)
	for _, k := range []int{-1, 0, 1} {
		if _, err := Build(a, k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestDirectoryLows(t *testing.T) {
	a := buildArray(t, 16, 100, 2)
	d, err := Build(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		if d.Low(i) != a.Low(i*8) {
			t.Fatalf("directory low %d mismatch", i)
		}
	}
	want := (a.Len() + 7) / 8
	if d.Len() != want {
		t.Fatalf("directory len %d, want %d", d.Len(), want)
	}
}

func TestBoundsLastBucketPartial(t *testing.T) {
	a := buildArray(t, 16, 100, 3)
	d, err := Build(a, 7)
	if err != nil {
		t.Fatal(err)
	}
	start, end := d.bounds(d.Len() - 1)
	if end != a.Len() {
		t.Fatalf("last bucket end %d, want %d", end, a.Len())
	}
	if end-start < 1 || end-start > 7 {
		t.Fatalf("last bucket size %d", end-start)
	}
}

// TestSearchEqualsGlobalFind: directory find + bucket search must equal the
// flat range-array search for every key (the §7 correctness argument).
func TestSearchEqualsGlobalFind(t *testing.T) {
	for _, k := range []int{2, 4, 8, 16} {
		a := buildArray(t, 16, 200, 4)
		d, err := Build(a, k)
		if err != nil {
			t.Fatal(err)
		}
		for q := uint64(0); q < 1<<16; q += 13 {
			key := keys.FromUint64(q)
			b := bucketOf(d, key)
			idx, comps := d.Search(b, key)
			if want := sort.Search(a.Len(), func(i int) bool { return key.Less(a.Low(i)) }) - 1; idx != want {
				t.Fatalf("k=%d key %d: bucket search %d, flat %d", k, q, idx, want)
			}
			if comps > k-1 {
				t.Fatalf("k=%d: %d comparisons", k, comps)
			}
		}
	}
}

func TestSizeBytes(t *testing.T) {
	a := buildArray(t, 32, 300, 5)
	d, err := Build(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.SizeBytes() != d.Len()*4 {
		t.Fatalf("SizeBytes = %d", d.SizeBytes())
	}
	if d.BucketBytes() != 7*4 {
		t.Fatalf("BucketBytes = %d", d.BucketBytes())
	}
	// Paper §10.1: 32-byte buckets = 8 ranges of 4 bytes.
	d8, err := Build(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	stride := 8 * 4
	addr, size := d8.DRAMAddr(3)
	if addr != uint64(3*stride+4) {
		t.Fatalf("DRAMAddr = %d", addr)
	}
	if size != 28 {
		t.Fatalf("DRAM fetch size = %d", size)
	}
}

func TestDirectoryImplementsIndex(t *testing.T) {
	var _ rqrmi.Index = (*Directory)(nil)
}

func TestCompressionRatio(t *testing.T) {
	a := buildArray(t, 24, 2000, 6)
	d, err := Build(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(a.SizeBytes()) / float64(d.SizeBytes())
	if ratio < 7.9 || ratio > 8.1 {
		t.Fatalf("compression ratio %.2f, want ~8", ratio)
	}
}

func BenchmarkDirectorySearch(b *testing.B) {
	a := buildArray(b, 24, 5000, 7)
	d, err := Build(a, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([]keys.Value, 1024)
	for i := range qs {
		qs[i] = keys.FromUint64(uint64(rng.Intn(1 << 24)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := qs[i&1023]
		bkt := bucketOf(d, k)
		d.Search(bkt, k)
	}
}
