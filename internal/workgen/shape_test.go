package workgen

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// TestBuiltinShapesValidate checks every advertised built-in resolves
// and passes its own validation, and that phase cycling covers all
// rounds.
func TestBuiltinShapesValidate(t *testing.T) {
	for _, name := range ShapeNames() {
		s, err := ShapeByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		total := s.TotalRounds()
		if total < 1 {
			t.Fatalf("%s: total rounds %d", name, total)
		}
		// Phase() must resolve every round in two full cycles and land on
		// each phase for exactly its Rounds count per cycle.
		counts := map[string]int{}
		for r := 0; r < 2*total; r++ {
			counts[s.Phase(r).Name]++
		}
		for i := range s.Phases {
			p := &s.Phases[i]
			if counts[p.Name] != 2*p.Rounds {
				t.Errorf("%s: phase %q got %d rounds over two cycles, want %d",
					name, p.Name, counts[p.Name], 2*p.Rounds)
			}
		}
	}
}

// TestShapeGrammar pins the inline phase grammar.
func TestShapeGrammar(t *testing.T) {
	s, err := ShapeByName("calm=32:1:2:0,surge=16:3.5:24:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 2 || s.TotalRounds() != 48 {
		t.Fatalf("parsed %+v", s)
	}
	p := s.Phases[1]
	if p.Name != "surge" || p.Rounds != 16 || p.Rate != 3.5 || p.Spread != 24 || p.Churn != 0.25 {
		t.Errorf("surge parsed as %+v", p)
	}

	for _, bad := range []string{
		"",                   // unknown builtin
		"nope",               // unknown builtin
		"a=1:1:2",            // too few fields
		"a=1:1:2:0:9",        // too many fields
		"=1:1:2:0",           // empty name
		"a=x:1:2:0",          // bad rounds
		"a=0:1:2:0",          // rounds < 1
		"a=1:-1:2:0",         // negative rate
		"a=1:1:0:0",          // spread < 1
		"a=1:1:64:0",         // spread > 32
		"a=1:1:2:1.5",        // churn > 1
		"a=1:1:2:0,b=1:1:2:", // trailing bad segment
	} {
		if _, err := ShapeByName(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestBatchSize pins rounding and clamping of the phase rate.
func TestBatchSize(t *testing.T) {
	cases := []struct {
		rate float64
		base int
		want int
	}{
		{0, 8, 0},
		{1, 8, 8},
		{0.25, 8, 2},
		{0.4, 1, 0}, // rounds down below half
		{0.5, 1, 1}, // half rounds up
		{1.5, 8, 12},
		{4, 8, 32},   // exactly the clamp
		{100, 8, 32}, // clamped to 4*base
	}
	for _, tc := range cases {
		p := Phase{Rate: tc.rate}
		if got := p.BatchSize(tc.base); got != tc.want {
			t.Errorf("rate %v base %d: got %d, want %d", tc.rate, tc.base, got, tc.want)
		}
	}
}

// TestShapeStreamDeterminism checks two streams with identical inputs
// emit identical command sequences, and that batches respect the phase
// size and the spread/weight cap.
func TestShapeStreamDeterminism(t *testing.T) {
	anchor := func(i int) string { return "A" + string(rune('a'+i)) }
	mk := func() *ShapeStream {
		s, err := ShapeByName("diurnal")
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewShapeStream(s, stats.NewStream(7, 3), "W", anchor, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	a, b := mk(), mk()
	var ca, cb []core.Command
	for r := 0; r < 200; r++ {
		ca = a.NextBatch(ca[:0], 8)
		cb = b.NextBatch(cb[:0], 8)
		if len(ca) != len(cb) {
			t.Fatalf("round %d: %d vs %d commands", r, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("round %d cmd %d: %+v vs %+v", r, i, ca[i], cb[i])
			}
			c := ca[i]
			if c.Op == core.OpReweight || c.Op == core.OpJoin {
				// maxNum 8 caps anchors; churn joins use 2/64.
				if c.Weight.Sign() <= 0 {
					t.Fatalf("round %d: non-positive weight %s", r, c.Weight)
				}
			}
		}
		if r%5 == 4 {
			a.Advanced()
			b.Advanced()
		}
	}
}

// TestShapeStreamIdlePhase checks a rate-0 phase emits nothing but the
// stream still progresses to the next phase.
func TestShapeStreamIdlePhase(t *testing.T) {
	s, err := ShapeByName("idle=2:0:1:0,busy=1:1:1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShapeStream(s, stats.NewStream(1, 0), "W", func(i int) string { return "a" }, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	var buf []core.Command
	for r := 0; r < 6; r++ {
		buf = ss.NextBatch(buf[:0], 4)
		got = append(got, len(buf))
	}
	want := []int{0, 0, 4, 0, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", got, want)
		}
	}
}

// TestShapeStreamChurnBounded checks churn never holds more than
// churnWindow short-lived tasks and only leaves tasks whose joins were
// flushed.
func TestShapeStreamChurnBounded(t *testing.T) {
	s, err := ShapeByName("churny=8:2:4:1")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShapeStream(s, stats.NewStream(3, 1), "W", func(i int) string { return "a" }, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	joined := map[string]bool{}  // flushed joins, eligible to leave
	pending := map[string]bool{} // posted but not yet flushed
	var buf []core.Command
	for r := 0; r < 400; r++ {
		buf = ss.NextBatch(buf[:0], 8)
		for _, c := range buf {
			switch c.Op {
			case core.OpJoin:
				if !strings.HasPrefix(c.Task, "W-c") {
					t.Fatalf("churn join outside the stream namespace: %q", c.Task)
				}
				pending[c.Task] = true
			case core.OpLeave:
				if !joined[c.Task] {
					t.Fatalf("round %d: leave of %q before its join was flushed", r, c.Task)
				}
				delete(joined, c.Task)
			case core.OpReweight:
			default:
				t.Fatalf("unexpected op %v", c.Op)
			}
		}
		if alive := len(joined) + len(pending); alive > churnWindow {
			t.Fatalf("round %d: %d churn tasks alive, window is %d", r, alive, churnWindow)
		}
		if r%3 == 2 {
			ss.Advanced()
			for k := range pending {
				joined[k] = true
			}
			pending = map[string]bool{}
		}
	}
}
