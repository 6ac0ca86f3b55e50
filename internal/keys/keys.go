// Package keys provides fixed-width unsigned integer keys of up to 128 bits
// and the key domains used throughout NeuroLPM.
//
// All NeuroLPM structures (rules, ranges, the RQRMI model) operate on a
// single Value type regardless of the configured bit width, so scaling from
// 32-bit (IPv4) to 128-bit (IPv6) keys requires no structural change — only
// wider arithmetic, exactly as the paper argues in §6.4.
package keys

import (
	"fmt"
	"math"
	"math/bits"
)

// Value is an unsigned integer of up to 128 bits, stored as two 64-bit limbs.
// The zero Value is the number zero.
type Value struct {
	Hi, Lo uint64
}

// FromUint64 returns the Value representing v.
func FromUint64(v uint64) Value { return Value{Lo: v} }

// FromParts returns the Value hi·2⁶⁴ + lo.
func FromParts(hi, lo uint64) Value { return Value{Hi: hi, Lo: lo} }

// Uint64 returns the low 64 bits of v.
func (v Value) Uint64() uint64 { return v.Lo }

// IsZero reports whether v is zero.
func (v Value) IsZero() bool { return v.Hi == 0 && v.Lo == 0 }

// Cmp compares v and o, returning -1, 0, or +1.
func (v Value) Cmp(o Value) int {
	switch {
	case v.Hi < o.Hi:
		return -1
	case v.Hi > o.Hi:
		return 1
	case v.Lo < o.Lo:
		return -1
	case v.Lo > o.Lo:
		return 1
	}
	return 0
}

// Less reports whether v < o.
func (v Value) Less(o Value) bool { return v.Cmp(o) < 0 }

// Add returns v + o, wrapping on 128-bit overflow.
func (v Value) Add(o Value) Value {
	lo, carry := bits.Add64(v.Lo, o.Lo, 0)
	hi, _ := bits.Add64(v.Hi, o.Hi, carry)
	return Value{Hi: hi, Lo: lo}
}

// Sub returns v − o, wrapping on underflow.
func (v Value) Sub(o Value) Value {
	lo, borrow := bits.Sub64(v.Lo, o.Lo, 0)
	hi, _ := bits.Sub64(v.Hi, o.Hi, borrow)
	return Value{Hi: hi, Lo: lo}
}

// AddUint64 returns v + x, wrapping on overflow.
func (v Value) AddUint64(x uint64) Value { return v.Add(Value{Lo: x}) }

// Inc returns v + 1, wrapping on overflow.
func (v Value) Inc() Value { return v.AddUint64(1) }

// Dec returns v − 1, wrapping on underflow.
func (v Value) Dec() Value { return v.Sub(Value{Lo: 1}) }

// And returns the bitwise AND of v and o.
func (v Value) And(o Value) Value { return Value{Hi: v.Hi & o.Hi, Lo: v.Lo & o.Lo} }

// Or returns the bitwise OR of v and o.
func (v Value) Or(o Value) Value { return Value{Hi: v.Hi | o.Hi, Lo: v.Lo | o.Lo} }

// xor returns the bitwise XOR of v and o.
func (v Value) xor(o Value) Value { return Value{Hi: v.Hi ^ o.Hi, Lo: v.Lo ^ o.Lo} }

// Not returns the bitwise complement of v.
func (v Value) Not() Value { return Value{Hi: ^v.Hi, Lo: ^v.Lo} }

// Shl returns v << n. Shifts of 128 or more yield zero.
func (v Value) Shl(n uint) Value {
	switch {
	case n == 0:
		return v
	case n < 64:
		return Value{Hi: v.Hi<<n | v.Lo>>(64-n), Lo: v.Lo << n}
	case n < 128:
		return Value{Hi: v.Lo << (n - 64)}
	}
	return Value{}
}

// Shr returns v >> n. Shifts of 128 or more yield zero.
func (v Value) Shr(n uint) Value {
	switch {
	case n == 0:
		return v
	case n < 64:
		return Value{Hi: v.Hi >> n, Lo: v.Lo>>n | v.Hi<<(64-n)}
	case n < 128:
		return Value{Lo: v.Hi >> (n - 64)}
	}
	return Value{}
}

// Bit returns bit i of v (bit 0 is the least significant). It returns 0 for
// i outside [0,127].
func (v Value) Bit(i int) uint {
	switch {
	case i < 0 || i > 127:
		return 0
	case i < 64:
		return uint(v.Lo>>uint(i)) & 1
	}
	return uint(v.Hi>>uint(i-64)) & 1
}

// Mid returns the midpoint ⌊(v+o)/2⌋ without overflowing 128 bits.
func (v Value) Mid(o Value) Value {
	// (v & o) + (v ^ o)/2 is the classic overflow-free average.
	return v.And(o).Add(v.xor(o).Shr(1))
}

// float returns the nearest float64 to v. Values above 2⁵³ lose precision,
// which is fine for model-input normalization: the mapping stays monotone
// non-decreasing, and RQRMI error bounds are computed against the same
// arithmetic used at query time.
func (v Value) float() float64 {
	return float64(v.Hi)*0x1p64 + float64(v.Lo)
}

// String formats v in hexadecimal.
func (v Value) String() string {
	if v.Hi == 0 {
		return fmt.Sprintf("0x%x", v.Lo)
	}
	return fmt.Sprintf("0x%x%016x", v.Hi, v.Lo)
}

// MaxValue returns the largest value representable in width bits.
// It panics if width is outside [1,128].
func MaxValue(width int) Value {
	checkWidth(width)
	if width > 64 {
		return Value{Hi: ^uint64(0) >> (128 - width), Lo: ^uint64(0)}
	}
	return Value{Lo: ^uint64(0) >> (64 - width)}
}

func checkWidth(width int) {
	if width < 1 || width > 128 {
		panic(fmt.Sprintf("keys: invalid width %d (must be 1..128)", width))
	}
}

// Domain is the set of all width-bit keys: [0, 2^width − 1].
type Domain struct {
	width int
	max   Value
	scale float64 // 1 / 2^width
}

// NewDomain returns the domain of width-bit keys.
// It panics if width is outside [1,128].
func NewDomain(width int) Domain {
	checkWidth(width)
	return Domain{
		width: width,
		max:   MaxValue(width),
		scale: math.Ldexp(1, -width),
	}
}

// Max returns the largest key in the domain.
func (d Domain) Max() Value { return d.max }

// Contains reports whether v lies within the domain.
func (d Domain) Contains(v Value) bool { return v.Cmp(d.max) <= 0 }

// ToUnit maps v to [0,1): v / 2^width. The mapping is monotone
// non-decreasing; distinct keys may collapse to the same float for wide
// domains, which the RQRMI error-bound analysis absorbs.
func (d Domain) ToUnit(v Value) float64 {
	return v.float() * d.scale
}

// FromUnit maps u ∈ [0,1) back to the nearest key at or below u·2^width.
// It is the approximate inverse of ToUnit, used to seed boundary searches.
func (d Domain) FromUnit(u float64) Value {
	if u <= 0 {
		return Value{}
	}
	if u >= 1 {
		return d.max
	}
	x := u * math.Ldexp(1, d.width)
	if d.width <= 63 {
		v := Value{Lo: uint64(x)}
		if v.Cmp(d.max) > 0 {
			return d.max
		}
		return v
	}
	hi := math.Floor(x * 0x1p-64)
	lo := x - hi*0x1p64
	if lo < 0 {
		lo = 0
	}
	v := Value{Hi: uint64(hi), Lo: uint64(lo)}
	if v.Cmp(d.max) > 0 {
		return d.max
	}
	return v
}
