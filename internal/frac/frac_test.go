package frac

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewNormalizes(t *testing.T) {
	cases := []struct {
		num, den     int64
		wantN, wantD int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 5, 0, 1},
		{0, -5, 0, 1},
		{6, 3, 2, 1},
		{21, 14, 3, 2},
		{-21, 14, -3, 2},
	}
	for _, c := range cases {
		r := New(c.num, c.den)
		if r.Num() != c.wantN || r.Den() != c.wantD {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.num, c.den, r.Num(), r.Den(), c.wantN, c.wantD)
		}
	}
}

// TestMinInt64Operands: New reduces on magnitudes, so a math.MinInt64
// operand that reduces is exact, and one that does not panics with
// ErrOverflow (Reduce and Parse return it) instead of yielding a
// negative denominator.
func TestMinInt64Operands(t *testing.T) {
	for _, c := range []struct {
		num, den     int64
		wantN, wantD int64
	}{
		{-1 << 62, math.MinInt64, 1, 2},
		{math.MinInt64, math.MinInt64, 1, 1},
		{math.MinInt64, 2, -1 << 62, 1},
		{math.MinInt64, -4, 1 << 61, 1},
		{6, math.MinInt64, -3, 1 << 62},
		{math.MaxInt64, -math.MaxInt64, -1, 1},
	} {
		r := New(c.num, c.den)
		if r.Num() != c.wantN || r.Den() != c.wantD {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.num, c.den, r.Num(), r.Den(), c.wantN, c.wantD)
		}
	}
	for _, c := range [][2]int64{{1, math.MinInt64}, {math.MinInt64, 3}, {math.MinInt64, -1}, {-3, math.MinInt64}} {
		if _, err := Reduce(c[0], c[1]); err != ErrOverflow {
			t.Errorf("Reduce(%d,%d): err %v, want ErrOverflow", c[0], c[1], err)
		}
		if _, ok := tryRat(t, func() Rat { return New(c[0], c[1]) }); ok {
			t.Errorf("New(%d,%d) did not panic", c[0], c[1])
		}
	}
	if _, err := Reduce(1, 0); err == nil {
		t.Error("Reduce(1,0) succeeded")
	}
	if r, err := Parse("-4611686018427387904/-9223372036854775808"); err != nil || !r.Eq(Half) {
		t.Errorf("Parse(-2^62/MinInt64) = %v, %v; want 1/2", r, err)
	}
	for _, s := range []string{"-9223372036854775808/3", "1/-9223372036854775808"} {
		if r, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", s, r)
		}
	}
}

// TestMinInt64Integer: FromInt and Parse's integer form hold
// math.MinInt64 exactly, and every operation that would negate it
// panics with ErrOverflow instead of returning the value unchanged.
func TestMinInt64Integer(t *testing.T) {
	p, err := Parse("-9223372036854775808")
	if err != nil {
		t.Fatalf("Parse(MinInt64): %v", err)
	}
	for _, m := range []Rat{FromInt(math.MinInt64), p} {
		if m.Num() != math.MinInt64 || m.Den() != 1 {
			t.Fatalf("MinInt64 integer = %d/%d", m.Num(), m.Den())
		}
		for name, op := range map[string]func() Rat{
			"Neg":    m.Neg,
			"Abs":    m.Abs,
			"Inv":    m.Inv,
			"Sub":    func() Rat { return One.Sub(m) },
			"Div":    func() Rat { return One.Div(m) },
			"MulInt": func() Rat { return m.MulInt(-1) },
		} {
			if r, ok := tryRat(t, op); ok {
				t.Errorf("%s of MinInt64 = %v, want ErrOverflow", name, r)
			}
		}
		if got := m.Add(One); got.Num() != math.MinInt64+1 {
			t.Errorf("MinInt64+1 = %v", got)
		}
		if m.Cmp(FromInt(math.MaxInt64)) != -1 || FromInt(-1).Cmp(m) != 1 {
			t.Errorf("Cmp misorders MinInt64")
		}
	}
}

func TestZeroValueIsZero(t *testing.T) {
	var r Rat
	if !r.IsZero() || r.Den() != 1 || r.Sign() != 0 {
		t.Fatalf("zero value misbehaves: %v den=%d sign=%d", r, r.Den(), r.Sign())
	}
	if !r.Add(One).Eq(One) {
		t.Fatalf("0 + 1 != 1")
	}
	if !r.Mul(Half).IsZero() {
		t.Fatalf("0 * 1/2 != 0")
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestArithmeticExamples(t *testing.T) {
	cases := []struct {
		a, b, add, sub, mul, div string
	}{
		{"1/2", "1/3", "5/6", "1/6", "1/6", "3/2"},
		{"3/19", "2/5", "53/95", "-23/95", "6/95", "15/38"},
		{"-1/2", "1/2", "0", "-1", "-1/4", "-1"},
		{"7", "2", "9", "5", "14", "7/2"},
		{"5/16", "5/16", "5/8", "0", "25/256", "1"},
		{"2/5", "-3/20", "1/4", "11/20", "-3/50", "-8/3"},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.Add(b); !got.Eq(MustParse(c.add)) {
			t.Errorf("%s + %s = %s, want %s", c.a, c.b, got, c.add)
		}
		if got := a.Sub(b); !got.Eq(MustParse(c.sub)) {
			t.Errorf("%s - %s = %s, want %s", c.a, c.b, got, c.sub)
		}
		if got := a.Mul(b); !got.Eq(MustParse(c.mul)) {
			t.Errorf("%s * %s = %s, want %s", c.a, c.b, got, c.mul)
		}
		if got := a.Div(b); !got.Eq(MustParse(c.div)) {
			t.Errorf("%s / %s = %s, want %s", c.a, c.b, got, c.div)
		}
	}
}

func TestFloorCeil(t *testing.T) {
	cases := []struct {
		r           string
		floor, ceil int64
	}{
		{"7/2", 3, 4},
		{"-7/2", -4, -3},
		{"4", 4, 4},
		{"-4", -4, -4},
		{"0", 0, 0},
		{"1/10", 0, 1},
		{"-1/10", -1, 0},
		{"19/3", 6, 7},
		{"20/3", 6, 7},
		{"21/3", 7, 7},
	}
	for _, c := range cases {
		r := MustParse(c.r)
		if got := r.Floor(); got != c.floor {
			t.Errorf("Floor(%s) = %d, want %d", c.r, got, c.floor)
		}
		if got := r.Ceil(); got != c.ceil {
			t.Errorf("Ceil(%s) = %d, want %d", c.r, got, c.ceil)
		}
	}
}

func TestWindowDivisions(t *testing.T) {
	// The Pfair window equations from the paper, checked against the
	// examples in Fig. 1: a task of weight 5/16 has r(T_2)=3, d(T_2)=7.
	w := New(5, 16)
	if got := FloorDivInt(1, w); got != 3 { // floor((2-1)/w)
		t.Errorf("floor(1/(5/16)) = %d, want 3", got)
	}
	if got := CeilDivInt(2, w); got != 7 { // ceil(2/w)
		t.Errorf("ceil(2/(5/16)) = %d, want 7", got)
	}
	// Weight 3/19: d(T_1) = ceil(1/w) = ceil(19/3) = 7.
	if got := CeilDivInt(1, New(3, 19)); got != 7 {
		t.Errorf("ceil(19/3) = %d, want 7", got)
	}
	// Weight 2/5: d(T_1) = ceil(5/2) = 3.
	if got := CeilDivInt(1, New(2, 5)); got != 3 {
		t.Errorf("ceil(5/2) = %d, want 3", got)
	}
}

func TestCmpAndOrdering(t *testing.T) {
	vals := []string{"-2", "-7/2", "-1/10", "0", "1/10", "5/16", "1/3", "1/2", "2/5", "1", "24/10"}
	for _, a := range vals {
		for _, b := range vals {
			ra, rb := MustParse(a), MustParse(b)
			want := 0
			fa, fb := ra.Float64(), rb.Float64()
			if fa < fb {
				want = -1
			} else if fa > fb {
				want = 1
			}
			if got := ra.Cmp(rb); got != want {
				t.Errorf("Cmp(%s,%s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMinMaxClamp(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !Min(a, b).Eq(a) || !Min(b, a).Eq(a) {
		t.Error("Min wrong")
	}
	if !Max(a, b).Eq(b) || !Max(b, a).Eq(b) {
		t.Error("Max wrong")
	}
	if got := Clamp(New(3, 4), a, b); !got.Eq(b) {
		t.Errorf("Clamp above = %s", got)
	}
	if got := Clamp(New(1, 10), a, b); !got.Eq(a) {
		t.Errorf("Clamp below = %s", got)
	}
	if got := Clamp(New(2, 5), a, b); !got.Eq(New(2, 5)) {
		t.Errorf("Clamp inside = %s", got)
	}
}

func TestParse(t *testing.T) {
	good := map[string]Rat{
		"1/2":   Half,
		" 3/19": New(3, 19),
		"-2/4":  New(-1, 2),
		"5":     FromInt(5),
		"-7":    FromInt(-7),
		"0":     Zero,
	}
	for s, want := range good {
		got, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", s, err)
			continue
		}
		if !got.Eq(want) {
			t.Errorf("Parse(%q) = %s, want %s", s, got, want)
		}
	}
	for _, s := range []string{"", "a", "1/0", "1/2/3", "1.5"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestString(t *testing.T) {
	cases := map[string]string{
		"2/4":  "1/2",
		"5":    "5",
		"-6/4": "-3/2",
		"0":    "0",
	}
	for in, want := range cases {
		if got := MustParse(in).String(); got != want {
			t.Errorf("String(%s) = %q, want %q", in, got, want)
		}
	}
}

func TestQuantize(t *testing.T) {
	cases := []struct {
		x    float64
		den  int64
		want Rat
	}{
		{0.333, 1000, New(333, 1000)},
		{0.3335, 1000, New(334, 1000)},
		{-0.3335, 1000, New(-334, 1000)},
		{0, 1000, Zero},
		{1, 7, One},
		{0.5, 2, Half},
	}
	for _, c := range cases {
		if got := Quantize(c.x, c.den); !got.Eq(c.want) {
			t.Errorf("Quantize(%v,%d) = %s, want %s", c.x, c.den, got, c.want)
		}
	}
}

func TestQuantizePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantize(1, 0) },
		func() { Quantize(math.NaN(), 10) },
		func() { Quantize(math.Inf(1), 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSum(t *testing.T) {
	got := Sum(New(1, 3), New(1, 3), New(1, 3))
	if !got.Eq(One) {
		t.Errorf("Sum(1/3 x3) = %s, want 1", got)
	}
	if !Sum().IsZero() {
		t.Error("Sum() != 0")
	}
}

func TestInvDivByZeroPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Zero.Inv() },
		func() { One.Div(Zero) },
		func() { FloorDivInt(1, Zero) },
		func() { CeilDivInt(1, Zero.Sub(One)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// randRat generates rationals with modest numerators/denominators, matching
// the magnitudes that occur in Pfair scheduling.
func randRat(r *rand.Rand) Rat {
	num := r.Int63n(2001) - 1000
	den := r.Int63n(999) + 1
	return New(num, den)
}

func TestPropertiesQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randRat(r))
			}
		},
	}

	t.Run("AddCommutative", func(t *testing.T) {
		if err := quick.Check(func(a, b Rat) bool {
			return a.Add(b).Eq(b.Add(a))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("AddAssociative", func(t *testing.T) {
		if err := quick.Check(func(a, b, c Rat) bool {
			return a.Add(b).Add(c).Eq(a.Add(b.Add(c)))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("MulCommutative", func(t *testing.T) {
		if err := quick.Check(func(a, b Rat) bool {
			return a.Mul(b).Eq(b.Mul(a))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("Distributive", func(t *testing.T) {
		if err := quick.Check(func(a, b, c Rat) bool {
			return a.Mul(b.Add(c)).Eq(a.Mul(b).Add(a.Mul(c)))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("SubAddRoundTrip", func(t *testing.T) {
		if err := quick.Check(func(a, b Rat) bool {
			return a.Sub(b).Add(b).Eq(a)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("DivMulRoundTrip", func(t *testing.T) {
		if err := quick.Check(func(a, b Rat) bool {
			if b.IsZero() {
				return true
			}
			return a.Div(b).Mul(b).Eq(a)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("NormalForm", func(t *testing.T) {
		if err := quick.Check(func(a, b Rat) bool {
			c := a.Add(b)
			if c.Den() < 1 {
				return false
			}
			return gcd64(abs64(c.Num()), c.Den()) == 1 || c.Num() == 0
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("FloorCeilBracket", func(t *testing.T) {
		if err := quick.Check(func(a Rat) bool {
			f, c := a.Floor(), a.Ceil()
			if FromInt(f).Cmp(a) > 0 || a.Cmp(FromInt(c)) > 0 {
				return false
			}
			if a.IsInt() {
				return f == c
			}
			return c == f+1
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("CmpAntisymmetric", func(t *testing.T) {
		if err := quick.Check(func(a, b Rat) bool {
			return a.Cmp(b) == -b.Cmp(a)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("OrderingTransitive", func(t *testing.T) {
		if err := quick.Check(func(a, b, c Rat) bool {
			x, y, z := a, b, c
			if y.Less(x) {
				x, y = y, x
			}
			if z.Less(y) {
				y, z = z, y
			}
			if y.Less(x) {
				x, y = y, x
			}
			return x.LessEq(y) && y.LessEq(z) && x.LessEq(z)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("StringParseRoundTrip", func(t *testing.T) {
		if err := quick.Check(func(a Rat) bool {
			back, err := Parse(a.String())
			return err == nil && back.Eq(a)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("AbsNonNegative", func(t *testing.T) {
		if err := quick.Check(func(a Rat) bool {
			return a.Abs().Sign() >= 0 && (a.Abs().Eq(a) || a.Abs().Eq(a.Neg()))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("WindowIdentity", func(t *testing.T) {
		// For 0 < w <= 1 and i >= 1: floor(i/w) and ceil(i/w) differ by the
		// b-bit, which is 0 or 1.
		if err := quick.Check(func(a Rat) bool {
			w := a.Abs()
			if w.IsZero() {
				return true
			}
			if One.Less(w) {
				w = w.Inv()
			}
			for i := int64(1); i <= 5; i++ {
				b := CeilDivInt(i, w) - FloorDivInt(i, w)
				if b != 0 && b != 1 {
					return false
				}
			}
			return true
		}, cfg); err != nil {
			t.Error(err)
		}
	})
}
