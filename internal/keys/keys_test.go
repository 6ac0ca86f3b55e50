package keys

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromUint64(t *testing.T) {
	v := FromUint64(42)
	if v.Hi != 0 || v.Lo != 42 {
		t.Fatalf("FromUint64(42) = %+v", v)
	}
	if v.Uint64() != 42 {
		t.Fatalf("Uint64() = %d", v.Uint64())
	}
}

func TestCmp(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Value{0, 1}, Value{0, 2}, -1},
		{Value{0, 2}, Value{0, 1}, 1},
		{Value{0, 5}, Value{0, 5}, 0},
		{Value{1, 0}, Value{0, ^uint64(0)}, 1},
		{Value{0, ^uint64(0)}, Value{1, 0}, -1},
		{Value{3, 9}, Value{3, 9}, 0},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := Value{aHi, aLo}
		b := Value{bHi, bLo}
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCarry(t *testing.T) {
	a := Value{0, ^uint64(0)}
	got := a.AddUint64(1)
	if got != (Value{1, 0}) {
		t.Fatalf("carry: got %v", got)
	}
}

func TestSubBorrow(t *testing.T) {
	a := Value{1, 0}
	got := a.Dec()
	if got != (Value{0, ^uint64(0)}) {
		t.Fatalf("borrow: got %v", got)
	}
}

func TestIncDec(t *testing.T) {
	f := func(hi, lo uint64) bool {
		v := Value{hi, lo}
		return v.Inc().Dec() == v && v.Dec().Inc() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShlShr(t *testing.T) {
	v := FromUint64(1)
	if got := v.Shl(64); got != (Value{1, 0}) {
		t.Fatalf("1<<64 = %v", got)
	}
	if got := v.Shl(127); got != (Value{1 << 63, 0}) {
		t.Fatalf("1<<127 = %v", got)
	}
	if got := v.Shl(128); !got.IsZero() {
		t.Fatalf("1<<128 = %v, want 0", got)
	}
	w := Value{1 << 63, 0}
	if got := w.Shr(127); got != FromUint64(1) {
		t.Fatalf("shr 127 = %v", got)
	}
	if got := w.Shr(128); !got.IsZero() {
		t.Fatalf("shr 128 = %v, want 0", got)
	}
}

func TestShlShrInverse(t *testing.T) {
	f := func(lo uint64, nRaw uint8) bool {
		// Bits shifted out of Lo land in Hi, so the 128-bit round trip
		// is lossless for shifts below 64.
		n := uint(nRaw % 64)
		v := Value{0, lo}
		return v.Shl(n).Shr(n) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBit(t *testing.T) {
	v := Value{Hi: 1, Lo: 0b101}
	if v.Bit(0) != 1 || v.Bit(1) != 0 || v.Bit(2) != 1 || v.Bit(64) != 1 || v.Bit(65) != 0 {
		t.Fatalf("Bit() wrong for %v", v)
	}
	if v.Bit(-1) != 0 || v.Bit(128) != 0 {
		t.Fatal("out-of-range Bit should be 0")
	}
}

func TestMid(t *testing.T) {
	cases := []struct{ a, b, want Value }{
		{FromUint64(0), FromUint64(10), FromUint64(5)},
		{FromUint64(1), FromUint64(2), FromUint64(1)},
		{Value{^uint64(0), ^uint64(0)}, Value{^uint64(0), ^uint64(0)}, Value{^uint64(0), ^uint64(0)}},
		{FromUint64(7), FromUint64(7), FromUint64(7)},
	}
	for _, c := range cases {
		if got := c.a.Mid(c.b); got != c.want {
			t.Errorf("Mid(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMidNoOverflow(t *testing.T) {
	f := func(aLo, bLo uint64) bool {
		a := Value{0, aLo}
		b := Value{0, bLo}
		lo, hi := a, b
		if hi.Less(lo) {
			lo, hi = hi, lo
		}
		m := a.Mid(b)
		return !m.Less(lo) && !hi.Less(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64(t *testing.T) {
	if got := FromUint64(1 << 30).float(); got != float64(1<<30) {
		t.Fatalf("Float64 = %g", got)
	}
	// 2^64 exactly.
	if got := (Value{1, 0}).float(); got != 0x1p64 {
		t.Fatalf("Float64(2^64) = %g", got)
	}
}

func TestMaxValue(t *testing.T) {
	if got := MaxValue(32); got != FromUint64(0xFFFFFFFF) {
		t.Fatalf("MaxValue(32) = %v", got)
	}
	if got := MaxValue(64); got != FromUint64(^uint64(0)) {
		t.Fatalf("MaxValue(64) = %v", got)
	}
	if got := MaxValue(128); got != (Value{^uint64(0), ^uint64(0)}) {
		t.Fatalf("MaxValue(128) = %v", got)
	}
	if got := MaxValue(1); got != FromUint64(1) {
		t.Fatalf("MaxValue(1) = %v", got)
	}
	// Every width below 128 is 2^width − 1.
	for w := 1; w < 128; w++ {
		if got, want := MaxValue(w), FromUint64(1).Shl(uint(w)).Dec(); got != want {
			t.Fatalf("MaxValue(%d) = %v, want %v", w, got, want)
		}
	}
}

func TestMaxValuePanics(t *testing.T) {
	for _, w := range []int{0, -1, 129} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaxValue(%d) did not panic", w)
				}
			}()
			MaxValue(w)
		}()
	}
}

func TestDomainContains(t *testing.T) {
	d := NewDomain(32)
	if !d.Contains(FromUint64(0xFFFFFFFF)) {
		t.Fatal("max should be in domain")
	}
	if d.Contains(FromUint64(1 << 32)) {
		t.Fatal("2^32 should not be in 32-bit domain")
	}
}

func TestToUnitRange(t *testing.T) {
	for _, w := range []int{1, 8, 32, 64, 127, 128} {
		d := NewDomain(w)
		if u := d.ToUnit(Value{}); u != 0 {
			t.Errorf("width %d: ToUnit(0) = %g", w, u)
		}
		u := d.ToUnit(d.Max())
		if u < 0 || u > 1 {
			t.Errorf("width %d: ToUnit(max) = %g out of [0,1]", w, u)
		}
	}
}

func TestToUnitMonotone(t *testing.T) {
	d := NewDomain(64)
	f := func(aLo, bLo uint64) bool {
		a, b := FromUint64(aLo), FromUint64(bLo)
		if b.Less(a) {
			a, b = b, a
		}
		return d.ToUnit(a) <= d.ToUnit(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestToUnitExact32(t *testing.T) {
	// For 32-bit keys the mapping is exact in float64.
	d := NewDomain(32)
	for _, v := range []uint64{0, 1, 12345, 1 << 31, 0xFFFFFFFF} {
		want := float64(v) / math.Ldexp(1, 32)
		if got := d.ToUnit(FromUint64(v)); got != want {
			t.Errorf("ToUnit(%d) = %g, want %g", v, got, want)
		}
	}
}

func TestFromUnitRoundTrip32(t *testing.T) {
	d := NewDomain(32)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := FromUint64(uint64(rng.Uint32()))
		got := d.FromUnit(d.ToUnit(v))
		if got != v {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestFromUnitClamps(t *testing.T) {
	d := NewDomain(32)
	if got := d.FromUnit(-0.5); !got.IsZero() {
		t.Fatalf("FromUnit(-0.5) = %v", got)
	}
	if got := d.FromUnit(1.5); got != d.Max() {
		t.Fatalf("FromUnit(1.5) = %v", got)
	}
	if got := d.FromUnit(1.0); got != d.Max() {
		t.Fatalf("FromUnit(1.0) = %v", got)
	}
}

func TestFromUnit128InDomain(t *testing.T) {
	d := NewDomain(128)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		u := rng.Float64()
		v := d.FromUnit(u)
		if !d.Contains(v) {
			t.Fatalf("FromUnit(%g) = %v out of domain", u, v)
		}
		// The round trip should land near u.
		got := d.ToUnit(v)
		if math.Abs(got-u) > 1e-9 {
			t.Fatalf("FromUnit(%g) -> ToUnit = %g", u, got)
		}
	}
}

func TestBitwiseOps(t *testing.T) {
	a := Value{0xF0F0, 0x1234}
	b := Value{0x0FF0, 0xFF00}
	if got := a.And(b); got != (Value{0x00F0, 0x1200}) {
		t.Errorf("And = %v", got)
	}
	if got := a.Or(b); got != (Value{0xFFF0, 0xFF34}) {
		t.Errorf("Or = %v", got)
	}
	if got := a.xor(b); got != (Value{0xFF00, 0xED34}) {
		t.Errorf("xor = %v", got)
	}
	if got := a.Not().Not(); got != a {
		t.Errorf("Not.Not = %v", got)
	}
}

func TestString(t *testing.T) {
	if s := FromUint64(255).String(); s != "0xff" {
		t.Errorf("String = %q", s)
	}
	if s := (Value{1, 0}).String(); s != "0x10000000000000000" {
		t.Errorf("String = %q", s)
	}
}

func BenchmarkCmp(b *testing.B) {
	x := Value{1, 2}
	y := Value{1, 3}
	for i := 0; i < b.N; i++ {
		_ = x.Cmp(y)
	}
}

func BenchmarkToUnit(b *testing.B) {
	d := NewDomain(128)
	v := Value{0x1234, 0x5678}
	for i := 0; i < b.N; i++ {
		_ = d.ToUnit(v)
	}
}
