package frac

import (
	"math"
	"testing"
)

// FuzzRatArith fuzzes the algebraic laws the scheduler relies on:
// Add/Mul commutativity, Add/Sub round-trips, Cmp consistency, and
// String/Parse round-trips — all under the package's documented
// overflow behaviour (operations either return an exact result or
// panic with ErrOverflow; they never silently wrap). It mirrors the
// structure of internal/spec's FuzzParse: seed with the interesting
// boundary cases, then let the mutator explore.
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
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad == 0 || bd == 0 {
			return // New is specified to panic on zero denominators
		}
		a, ok := tryRat(t, func() Rat { return New(an, ad) })
		if !ok {
			return // |MinInt64| is not representable; overflow is the contract
		}
		b, ok := tryRat(t, func() Rat { return New(bn, bd) })
		if !ok {
			return
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

		// Neg/Abs are involutive and sign-consistent.
		if !a.Neg().Neg().Eq(a) {
			t.Fatalf("Neg not involutive for %v", a)
		}
		if a.Abs().Sign() < 0 {
			t.Fatalf("Abs(%v) negative", a)
		}
	})
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

// abs64nofail is abs64 for values already known representable.
func abs64nofail(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
