package frac

import (
	"math"
	"math/big"
	"testing"
)

// FuzzRatArith fuzzes the algebraic laws the scheduler relies on:
// Add/Mul commutativity, Add/Sub round-trips, Cmp consistency, and
// String/Parse round-trips — all under the package's documented
// overflow behaviour (operations either return an exact result or
// panic with ErrOverflow; they never silently wrap). math/big is the
// oracle: every Add, Sub, Mul, Div, Cmp and CeilQuo that returns must
// equal big.Rat's answer. A denominator of 1 builds the operand with FromInt,
// so math.MinInt64 integers are fuzzed too. It mirrors the structure of
// internal/spec's FuzzParse: seed with the interesting boundary cases,
// then let the mutator explore.
func FuzzRatArith(f *testing.F) {
	f.Add(int64(1), int64(2), int64(1), int64(3))
	f.Add(int64(3), int64(20), int64(-3), int64(20))
	f.Add(int64(0), int64(1), int64(0), int64(1))
	f.Add(int64(-7), int64(5), int64(7), int64(-5))
	f.Add(int64(math.MaxInt64), int64(1), int64(1), int64(math.MaxInt64))
	f.Add(int64(math.MinInt64), int64(3), int64(5), int64(7))
	f.Add(int64(1), int64(math.MaxInt64), int64(1), int64(math.MaxInt64-1))
	f.Add(int64(-1<<62), int64(math.MinInt64), int64(math.MinInt64), int64(math.MinInt64))
	f.Add(int64(-1<<62), int64(math.MinInt64), int64(1), int64(3))
	f.Add(int64(1), int64(math.MinInt64), int64(3), int64(math.MinInt64))
	f.Add(int64(6), int64(math.MinInt64), int64(math.MinInt64), int64(-4))
	f.Add(int64(math.MinInt64), int64(1), int64(-1), int64(1))
	f.Add(int64(-1), int64(1), int64(math.MinInt64), int64(1))
	f.Add(int64(math.MinInt64), int64(1), int64(math.MinInt64), int64(1))
	f.Add(int64(math.MaxInt64), int64(2), int64(math.MaxInt64), int64(3))
	f.Add(int64(3), int64(1<<62), int64(5), int64(1<<61))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad == 0 || bd == 0 {
			return // New is specified to panic on zero denominators
		}
		a, ok := tryRat(t, func() Rat { return build(an, ad) })
		if !ok {
			return // |MinInt64| is not representable; overflow is the contract
		}
		b, ok := tryRat(t, func() Rat { return build(bn, bd) })
		if !ok {
			return
		}

		// The oracle: each result that returns is big.Rat's.
		ba, bb := toBig(a), toBig(b)
		oracle := []struct {
			name string
			op   func() Rat
			want func() *big.Rat
		}{
			{"Add", func() Rat { return a.Add(b) }, func() *big.Rat { return new(big.Rat).Add(ba, bb) }},
			{"Sub", func() Rat { return a.Sub(b) }, func() *big.Rat { return new(big.Rat).Sub(ba, bb) }},
			{"Mul", func() Rat { return a.Mul(b) }, func() *big.Rat { return new(big.Rat).Mul(ba, bb) }},
		}
		if !b.IsZero() {
			oracle = append(oracle, struct {
				name string
				op   func() Rat
				want func() *big.Rat
			}{"Div", func() Rat { return a.Div(b) }, func() *big.Rat { return new(big.Rat).Quo(ba, bb) }})
		}
		for _, o := range oracle {
			got, ok := tryRat(t, o.op)
			if !ok {
				continue
			}
			if toBig(got).Cmp(o.want()) != 0 {
				t.Fatalf("%s(%v, %v) = %v, big.Rat says %v", o.name, a, b, got, o.want().RatString())
			}
			if got.Num() == math.MinInt64 || gcd64(abs64nofail(got.Num()), got.Den()) != 1 {
				t.Fatalf("%s(%v, %v) = %d/%d, not in lowest terms", o.name, a, b, got.Num(), got.Den())
			}
		}
		if c, ok := tryInt(t, func() int { return a.Cmp(b) }); ok && c != ba.Cmp(bb) {
			t.Fatalf("Cmp(%v, %v) = %d, big.Rat says %d", a, b, c, ba.Cmp(bb))
		}
		if b.Sign() > 0 {
			// ⌈a/b⌉ = -⌊-a/b⌋, and big.Int's Div floors for b > 0.
			want := new(big.Int).Mul(ba.Num(), bb.Denom())
			want.Div(want.Neg(want), new(big.Int).Mul(ba.Denom(), bb.Num())).Neg(want)
			if q, ok := tryInt64(t, func() int64 { return CeilQuo(a, b) }); ok && (!want.IsInt64() || q != want.Int64()) {
				t.Fatalf("CeilQuo(%v, %v) = %d, big.Int says %v", a, b, q, want)
			}
		}

		// Normalization invariants: lowest terms, positive denominator.
		for _, r := range []Rat{a, b} {
			if r.Den() < 1 {
				t.Fatalf("non-positive denominator: %v", r)
			}
			if g := gcd64(abs64nofail(r.Num()), r.Den()); r.Num() != 0 && g != 1 {
				t.Fatalf("not in lowest terms: %v (gcd %d)", r, g)
			}
		}

		// Add commutes; Sub inverts Add.
		if s1, ok := tryRat(t, func() Rat { return a.Add(b) }); ok {
			s2, ok2 := tryRat(t, func() Rat { return b.Add(a) })
			if !ok2 || !s1.Eq(s2) {
				t.Fatalf("Add not commutative: %v+%v = %v vs %v", a, b, s1, s2)
			}
			if back, ok := tryRat(t, func() Rat { return s1.Sub(b) }); ok && !back.Eq(a) {
				t.Fatalf("(%v+%v)-%v = %v, want %v", a, b, b, back, a)
			}
		}

		// Mul commutes; Div inverts Mul for nonzero b.
		if p1, ok := tryRat(t, func() Rat { return a.Mul(b) }); ok {
			p2, ok2 := tryRat(t, func() Rat { return b.Mul(a) })
			if !ok2 || !p1.Eq(p2) {
				t.Fatalf("Mul not commutative: %v*%v = %v vs %v", a, b, p1, p2)
			}
			if !b.IsZero() {
				if back, ok := tryRat(t, func() Rat { return p1.Div(b) }); ok && !back.Eq(a) {
					t.Fatalf("(%v*%v)/%v = %v, want %v", a, b, b, back, a)
				}
			}
		}

		// Cmp is antisymmetric and agrees with Sub's sign when Sub is
		// representable. (Cmp itself may overflow on extreme operands;
		// that, too, must surface as ErrOverflow, never a wrong answer.)
		c1, ok1 := tryInt(t, func() int { return a.Cmp(b) })
		c2, ok2 := tryInt(t, func() int { return b.Cmp(a) })
		if ok1 && ok2 && c1 != -c2 {
			t.Fatalf("Cmp not antisymmetric: Cmp(%v,%v)=%d, Cmp(%v,%v)=%d", a, b, c1, b, a, c2)
		}
		if ok1 {
			if d, ok := tryRat(t, func() Rat { return a.Sub(b) }); ok && d.Sign() != c1 {
				t.Fatalf("Cmp(%v,%v)=%d but Sub sign=%d", a, b, c1, d.Sign())
			}
			if (c1 == 0) != a.Eq(b) {
				t.Fatalf("Cmp(%v,%v)=%d disagrees with Eq=%v", a, b, c1, a.Eq(b))
			}
		}

		// String/Parse round-trip is exact (rationals must survive JSON).
		got, err := Parse(a.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", a.String(), err)
		}
		if !got.Eq(a) {
			t.Fatalf("Parse(String(%v)) = %v", a, got)
		}

		// Neg/Abs are involutive and sign-consistent, or ErrOverflow
		// (a math.MinInt64 numerator).
		if n, ok := tryRat(t, func() Rat { return a.Neg().Neg() }); ok && !n.Eq(a) {
			t.Fatalf("Neg not involutive for %v", a)
		}
		if abs, ok := tryRat(t, a.Abs); ok && abs.Sign() < 0 {
			t.Fatalf("Abs(%v) negative", a)
		}
	})
}

// build makes a fuzz operand: FromInt for a denominator of 1 (the only
// way to hold a math.MinInt64 numerator), New otherwise.
func build(num, den int64) Rat {
	if den == 1 {
		return FromInt(num)
	}
	return New(num, den)
}

// toBig converts r to the oracle's representation.
func toBig(r Rat) *big.Rat {
	return new(big.Rat).SetFrac(big.NewInt(r.Num()), big.NewInt(r.Den()))
}

// tryRat runs fn, treating an ErrOverflow panic as the documented
// out-of-range outcome. Any other panic is a real bug and fails the
// fuzz run.
func tryRat(t *testing.T, fn func() Rat) (r Rat, ok bool) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			if rec != ErrOverflow {
				t.Fatalf("unexpected panic: %v", rec)
			}
			ok = false
		}
	}()
	return fn(), true
}

// tryInt is tryRat for int-valued operations (Cmp).
func tryInt(t *testing.T, fn func() int) (v int, ok bool) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			if rec != ErrOverflow {
				t.Fatalf("unexpected panic: %v", rec)
			}
			ok = false
		}
	}()
	return fn(), true
}

// tryInt64 is tryRat for int64-valued operations (CeilQuo).
func tryInt64(t *testing.T, fn func() int64) (v int64, ok bool) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			if rec != ErrOverflow {
				t.Fatalf("unexpected panic: %v", rec)
			}
			ok = false
		}
	}()
	return fn(), true
}

// abs64nofail is abs64 for values already known representable.
func abs64nofail(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
