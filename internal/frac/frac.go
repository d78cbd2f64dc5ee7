// Package frac implements exact rational arithmetic on checked int64
// numerators and denominators.
//
// Pfair scheduling theory is built on exact fractions: task weights such as
// 3/19, per-slot ideal allocations such as 32/95, and drift values such as
// -3/20 must be computed without rounding, because correctness conditions
// (lag bounds, completion times, drift bounds) are stated as exact
// comparisons. All values that flow through the scheduler use this package;
// floating point appears only in the Whisper geometry layer, which quantizes
// to rationals before handing weights to the scheduler.
//
// Values are kept in lowest terms with a non-negative denominator. The zero
// value of Rat is the rational number 0 and is ready to use. All operations
// detect int64 overflow; on overflow they panic with ErrOverflow, since the
// quantities handled by this repository (denominators in the low thousands,
// time horizons in the low millions) are far from the representable range
// and an overflow indicates a programming error rather than a recoverable
// condition.
package frac

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// ErrOverflow is the panic value used when an operation exceeds int64 range
// even after reduction to lowest terms.
var ErrOverflow = fmt.Errorf("frac: int64 overflow")

// Rat is an exact rational number num/den, always stored in lowest terms
// with den > 0. The zero value is 0/1.
type Rat struct {
	num int64
	den int64 // invariant: den >= 1 after normalization; zero value means den==1
}

// Common constants.
var (
	Zero = Rat{0, 1}
	One  = Rat{1, 1}
	Half = Rat{1, 2}
)

// New returns the rational num/den in lowest terms. It panics if den == 0,
// and with ErrOverflow if the reduced numerator or denominator has
// magnitude 2^63 (an unreduced math.MinInt64 operand).
func New(num, den int64) Rat {
	if den == 0 {
		panic("frac: zero denominator")
	}
	return norm(num, den)
}

// errZeroDen is Reduce's error for a zero denominator.
var errZeroDen = errors.New("zero denominator")

// Reduce is New for untrusted input: it returns the same value, or an
// error instead of a panic when den is 0 or the reduced value does not
// fit. It reduces the unsigned magnitudes, so a math.MinInt64 operand
// is exact: MinInt64/MinInt64 is 1 and -2^62/MinInt64 is 1/2. A reduced
// numerator or denominator of magnitude 2^63 is ErrOverflow: no Rat
// holds it (a numerator of MinInt64 could not be negated). It never
// allocates.
func Reduce(num, den int64) (Rat, error) {
	if den == 0 {
		return Rat{}, errZeroDen
	}
	if num == 0 {
		return Rat{0, 1}, nil
	}
	n, d := magnitude(num), magnitude(den)
	if g := gcdU64(n, d); g != 1 {
		n, d = n/g, d/g
	}
	if n > math.MaxInt64 || d > math.MaxInt64 {
		return Rat{}, ErrOverflow
	}
	if (num < 0) != (den < 0) {
		return Rat{-int64(n), int64(d)}, nil
	}
	return Rat{int64(n), int64(d)}, nil
}

// FromInt returns the rational n/1. FromInt(math.MinInt64) is exact,
// but its Neg and Abs panic with ErrOverflow, and so do the operations
// built on them (Sub by it, Div by it, Inv).
func FromInt(n int64) Rat {
	return Rat{n, 1}
}

// norm reduces num/den (den != 0) to lowest terms with a positive
// denominator. It panics with ErrOverflow when the result does not fit.
func norm(num, den int64) Rat {
	r, err := Reduce(num, den)
	if err != nil {
		panic(err)
	}
	return r
}

// canon returns num/den as a Rat when the caller has proved num/den is
// already in lowest terms with den > 0, so no gcd is needed. Zero
// becomes 0/1, and a numerator of math.MinInt64 panics with ErrOverflow,
// as Reduce would.
func canon(num, den int64) Rat {
	switch num {
	case 0:
		return Rat{0, 1}
	case math.MinInt64:
		panic(ErrOverflow)
	}
	return Rat{num, den}
}

// magnitude returns |x| as a uint64; |MinInt64| is 2^63.
func magnitude(x int64) uint64 {
	if x < 0 {
		return uint64(-(x + 1)) + 1
	}
	return uint64(x)
}

// gcdU64 returns the greatest common divisor of a and b; gcd(0, b) is b.
// It is Stein's binary algorithm: shifts and subtractions only, no
// division.
func gcdU64(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
		if b == 0 {
			return a << shift
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == math.MinInt64 {
			panic(ErrOverflow)
		}
		return -x
	}
	return x
}

// gcd64 returns the greatest common divisor of a >= 0 and b > 0 (a may
// be 0, in which case b is returned).
func gcd64(a, b int64) int64 {
	return int64(gcdU64(uint64(a), uint64(b)))
}

// checked arithmetic helpers ------------------------------------------------

func addChecked(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		panic(ErrOverflow)
	}
	return s
}

// mulChecked returns a*b, or panics with ErrOverflow when the product
// leaves int64. The 128-bit product of the magnitudes decides, so no
// division is needed.
func mulChecked(a, b int64) int64 {
	hi, lo := bits.Mul64(magnitude(a), magnitude(b))
	if (a < 0) != (b < 0) {
		if hi != 0 || lo > 1<<63 {
			panic(ErrOverflow)
		}
		return int64(-lo) // -2^63 wraps onto itself, exactly math.MinInt64
	}
	if hi != 0 || lo > math.MaxInt64 {
		panic(ErrOverflow)
	}
	return int64(lo)
}

// Num returns the numerator (in lowest terms; sign carried here).
func (r Rat) Num() int64 { return r.num }

// Den returns the denominator (in lowest terms, always >= 1).
func (r Rat) Den() int64 {
	if r.den == 0 { // zero value
		return 1
	}
	return r.den
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.num == 0 }

// Sign returns -1, 0 or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.num < 0:
		return -1
	case r.num > 0:
		return 1
	default:
		return 0
	}
}

// Neg returns -r. It panics with ErrOverflow when the numerator is
// math.MinInt64 (FromInt(math.MinInt64)), whose negation has no int64.
func (r Rat) Neg() Rat {
	if r.num == math.MinInt64 {
		panic(ErrOverflow)
	}
	return Rat{-r.num, r.Den()}
}

// Abs returns |r|. Like Neg, it panics with ErrOverflow on a
// math.MinInt64 numerator.
func (r Rat) Abs() Rat {
	if r.num < 0 {
		return r.Neg()
	}
	return Rat{r.num, r.Den()}
}

// Add returns r + s. Operands are in lowest terms, so most sums need no
// gcd over the full result: a sum with an integer is already reduced,
// and otherwise only gcd(n, gcd(rd, sd)) can divide the result (Knuth,
// TAOCP 4.5.1).
func (r Rat) Add(s Rat) Rat {
	rd, sd := r.Den(), s.Den()
	switch {
	case sd == 1:
		return canon(addChecked(r.num, mulChecked(s.num, rd)), rd)
	case rd == 1:
		return canon(addChecked(mulChecked(r.num, sd), s.num), sd)
	case rd == sd:
		// Equal denominators (a weight's multiples): one checked add,
		// then reduce.
		return norm(addChecked(r.num, s.num), rd)
	}
	// Use the lcm-style reduction to keep intermediates small.
	g := gcd64(rd, sd)
	// r.num*(sd/g) + s.num*(rd/g), over rd*(sd/g)
	n := addChecked(mulChecked(r.num, sd/g), mulChecked(s.num, rd/g))
	d := mulChecked(rd, sd/g)
	if g != 1 {
		if g2 := int64(gcdU64(magnitude(n), uint64(g))); g2 != 1 {
			n, d = n/g2, d/g2
		}
	}
	return canon(n, d)
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Mul returns r * s.
func (r Rat) Mul(s Rat) Rat {
	rd, sd := r.Den(), s.Den()
	// Cross-reduce before multiplying to avoid overflow.
	g1 := gcd64(abs64(r.num), sd)
	g2 := gcd64(abs64(s.num), rd)
	n := mulChecked(r.num/g1, s.num/g2)
	d := mulChecked(rd/g2, sd/g1)
	return canon(n, d) // cross-reduced operands in lowest terms leave nothing to reduce
}

// Div returns r / s. It panics if s == 0.
func (r Rat) Div(s Rat) Rat {
	if s.num == 0 {
		panic("frac: division by zero")
	}
	return r.Mul(Rat{s.Den(), abs64(s.num)}.withSign(s.Sign()))
}

func (r Rat) withSign(sign int) Rat {
	if sign < 0 {
		return Rat{-r.num, r.Den()}
	}
	return r
}

// MulInt returns r * n.
func (r Rat) MulInt(n int64) Rat {
	g := gcd64(abs64(n), r.Den())
	return canon(mulChecked(r.num, n/g), r.Den()/g)
}

// Inv returns 1/r. It panics if r == 0.
func (r Rat) Inv() Rat {
	if r.num == 0 {
		panic("frac: division by zero")
	}
	if r.num < 0 {
		return Rat{-r.Den(), abs64(r.num)}
	}
	return Rat{r.Den(), r.num}
}

// Cmp compares r and s, returning -1 if r < s, 0 if r == s, +1 if r > s.
// It is exact for every pair of values: the cross products are compared
// at 128 bits, so Cmp never overflows.
func (r Rat) Cmp(s Rat) int {
	rs, ss := r.Sign(), s.Sign()
	if rs != ss {
		if rs < ss {
			return -1
		}
		return 1
	}
	if rs == 0 {
		return 0
	}
	// Same sign: r.num/rd ? s.num/sd  <=>  |r.num|*sd ? |s.num|*rd,
	// flipped for negatives (denominators are positive).
	ah, al := bits.Mul64(magnitude(r.num), uint64(s.Den()))
	bh, bl := bits.Mul64(magnitude(s.num), uint64(r.Den()))
	switch {
	case ah == bh && al == bl:
		return 0
	case ah < bh || (ah == bh && al < bl):
		return -rs
	}
	return rs
}

// Eq reports whether r == s.
func (r Rat) Eq(s Rat) bool { return r.num == s.num && r.Den() == s.Den() }

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports whether r <= s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Min returns the smaller of r and s.
func Min(r, s Rat) Rat {
	if r.Cmp(s) <= 0 {
		return r
	}
	return s
}

// Max returns the larger of r and s.
func Max(r, s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r
	}
	return s
}

// Floor returns the greatest integer <= r.
func (r Rat) Floor() int64 {
	d := r.Den()
	q := r.num / d
	if r.num%d != 0 && r.num < 0 {
		q--
	}
	return q
}

// Ceil returns the least integer >= r.
func (r Rat) Ceil() int64 {
	d := r.Den()
	q := r.num / d
	if r.num%d != 0 && r.num > 0 {
		q++
	}
	return q
}

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den() == 1 }

// FloorDivInt returns floor(i / r) for r > 0. This is the ⌊i/wt(T)⌋ operation
// from the Pfair window equations. It panics if r <= 0.
func FloorDivInt(i int64, r Rat) int64 {
	if r.Sign() <= 0 {
		panic("frac: FloorDivInt requires positive divisor")
	}
	// i / (num/den) = i*den/num
	return FromInt(i).Mul(r.Inv()).Floor()
}

// CeilDivInt returns ceil(i / r) for r > 0. This is the ⌈i/wt(T)⌉ operation
// from the Pfair window equations. It panics if r <= 0.
func CeilDivInt(i int64, r Rat) int64 {
	if r.Sign() <= 0 {
		panic("frac: CeilDivInt requires positive divisor")
	}
	return CeilQuo(FromInt(i), r)
}

// CeilQuo returns ⌈r/s⌉ for s > 0, the value of r.Div(s).Ceil(), with
// one integer division of the cross products instead of building the
// reduced quotient. It panics if s <= 0, and with ErrOverflow when the
// result leaves int64.
func CeilQuo(r, s Rat) int64 {
	if s.Sign() <= 0 {
		panic("frac: CeilQuo requires positive divisor")
	}
	nh, nl := bits.Mul64(magnitude(r.num), uint64(s.Den()))
	dh, dl := bits.Mul64(uint64(r.Den()), uint64(s.num))
	if nh != 0 || dh != 0 {
		return r.Div(s).Ceil() // operands past 64-bit cross products
	}
	q, rem := nl/dl, nl%dl
	if r.num < 0 { // ⌈-x⌉ = -⌊x⌋
		if q > 1<<63 {
			panic(ErrOverflow)
		}
		return -int64(q) // -2^63 wraps onto itself, exactly math.MinInt64
	}
	if rem != 0 {
		q++
	}
	if q > math.MaxInt64 {
		panic(ErrOverflow)
	}
	return int64(q)
}

// Float64 returns the nearest float64 to r. Intended for reporting only.
func (r Rat) Float64() float64 {
	return float64(r.num) / float64(r.Den()) //lint:allow fracexact designated exact→float reporting boundary
}

// String formats r as "num/den", or just "num" when r is an integer.
func (r Rat) String() string {
	if r.Den() == 1 {
		return strconv.FormatInt(r.num, 10)
	}
	return strconv.FormatInt(r.num, 10) + "/" + strconv.FormatInt(r.Den(), 10)
}

// Append appends String's exact bytes to dst and returns the extended
// slice, for allocation-free formatting on hot paths (the state-digest
// writer); TestAppendMatchesString pins the byte equivalence.
//
//lint:noalloc digest path formatter
func (r Rat) Append(dst []byte) []byte {
	dst = strconv.AppendInt(dst, r.num, 10)
	if den := r.Den(); den != 1 {
		dst = append(dst, '/')
		dst = strconv.AppendInt(dst, den, 10)
	}
	return dst
}

// Parse parses "a/b" or "a" into a Rat.
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, err := strconv.ParseInt(strings.TrimSpace(s[:i]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("frac: parse %q: %w", s, err)
		}
		den, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("frac: parse %q: %w", s, err)
		}
		r, err := Reduce(num, den)
		if err != nil {
			return Rat{}, fmt.Errorf("frac: parse %q: %w", s, err)
		}
		return r, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Rat{}, fmt.Errorf("frac: parse %q: %w", s, err)
	}
	return FromInt(n), nil
}

// MustParse is Parse but panics on error. Intended for tests and constants.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// MarshalText implements encoding.TextMarshaler using the "num/den" form,
// so rationals survive JSON round-trips exactly.
func (r Rat) MarshalText() ([]byte, error) {
	return []byte(r.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting "a/b" or "a".
func (r *Rat) UnmarshalText(text []byte) error {
	v, err := Parse(string(text))
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// Sum returns the sum of the given rationals.
func Sum(rs ...Rat) Rat {
	total := Zero
	for _, r := range rs {
		total = total.Add(r)
	}
	return total
}

// Quantize returns the rational nearest to x with the given denominator
// (round half away from zero), in lowest terms. It is how floating-point
// weights from the Whisper cost model enter the exact-arithmetic scheduler.
// It panics if den <= 0 or x is not finite.
func Quantize(x float64, den int64) Rat {
	if den <= 0 {
		panic("frac: Quantize requires positive denominator")
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic("frac: Quantize of non-finite value")
	}
	scaled := x * float64(den) //lint:allow fracexact designated float→exact entry point (Whisper cost model)
	var n int64
	if scaled >= 0 { //lint:allow fracexact sign test on the incoming float, before quantization
		n = int64(math.Floor(scaled + 0.5)) //lint:allow fracexact round-half-away rounding of the incoming float
	} else {
		n = int64(math.Ceil(scaled - 0.5)) //lint:allow fracexact round-half-away rounding of the incoming float
	}
	return New(n, den)
}

// Clamp returns r limited to the inclusive range [lo, hi].
func Clamp(r, lo, hi Rat) Rat {
	if r.Less(lo) {
		return lo
	}
	if hi.Less(r) {
		return hi
	}
	return r
}
