package workgen

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/stats"
)

// TestTemplateNames pins name round-tripping and the rejection contract.
func TestTemplateNames(t *testing.T) {
	names := TemplateNames()
	if len(names) != int(numTemplates) {
		t.Fatalf("%d names for %d templates", len(names), numTemplates)
	}
	for _, name := range names {
		tmpl, err := TemplateByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tmpl.String() != name {
			t.Errorf("%s round-trips to %s", name, tmpl)
		}
	}
	if _, err := TemplateByName("nope"); err == nil {
		t.Error("unknown template accepted")
	}
	if TemplateReweightStorm.ExpectsRejections() {
		t.Error("reweight-storm must stay admission-clean")
	}
	for _, tmpl := range []Template{TemplateChurn, TemplateAdmissionCamp, TemplateHeavyFlood} {
		if !tmpl.ExpectsRejections() {
			t.Errorf("%s should expect rejections", tmpl)
		}
	}
}

// TestTemplateEnvelopes checks the (m, tasks) validation.
func TestTemplateEnvelopes(t *testing.T) {
	rng := stats.NewStream(1, 0)
	if _, err := NewTemplateStream(TemplateReweightStorm, rng, "P", 1, 34); err != nil {
		t.Errorf("storm m=1 tasks=34 should fit (34+30=64): %v", err)
	}
	if _, err := NewTemplateStream(TemplateReweightStorm, rng, "P", 1, 35); err == nil {
		t.Error("storm m=1 tasks=35 should exceed the envelope")
	}
	if _, err := NewTemplateStream(TemplateChurn, rng, "P", 1, 33); err == nil {
		t.Error("churn m=1 tasks=33 should exceed the envelope")
	}
	if _, err := NewTemplateStream(TemplateAdmissionCamp, rng, "P", 1, 1000); err != nil {
		t.Errorf("camp ignores tasks: %v", err)
	}
	if _, err := NewTemplateStream(Template(200), rng, "P", 4, 4); err == nil {
		t.Error("out-of-range template accepted")
	}
}

// TestCampSetupWeights checks the camp setup requests exactly M - 1/64.
func TestCampSetupWeights(t *testing.T) {
	for m := 1; m <= 8; m++ {
		ts, err := NewTemplateStream(TemplateAdmissionCamp, stats.NewStream(1, 0), "P", m, 1)
		if err != nil {
			t.Fatal(err)
		}
		setup := ts.Setup(nil)
		if len(setup) != 2*m {
			t.Fatalf("m=%d: %d setup joins, want %d", m, len(setup), 2*m)
		}
		total := frac.Rat{}
		for _, c := range setup {
			if c.Op != core.OpJoin {
				t.Fatalf("m=%d: setup op %v", m, c.Op)
			}
			total = total.Add(c.Weight)
		}
		want := frac.FromInt(int64(m)).Sub(frac.New(1, 64))
		if total != want {
			t.Errorf("m=%d: camp requests %s, want %s", m, total, want)
		}
		// Every camping join afterwards must be a 1/32 join — over the
		// remaining 1/64 headroom, so the server must 409 all of them.
		next := ts.Next(nil, 10)
		for _, c := range next {
			if c.Op != core.OpJoin || c.Weight != frac.New(1, 32) {
				t.Errorf("m=%d: camp emitted %+v", m, c)
			}
		}
	}
}

// TestStormAlternates checks the storm slams between 31/64 and a low
// target on strictly alternating steps against a single task.
func TestStormAlternates(t *testing.T) {
	ts, err := NewTemplateStream(TemplateReweightStorm, stats.NewStream(1, 0), "P", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cmds := ts.Next(nil, 64)
	high := frac.New(31, 64)
	for i, c := range cmds {
		if c.Op != core.OpReweight || c.Task != "P-a0" {
			t.Fatalf("step %d: %+v", i, c)
		}
		if i%2 == 0 && c.Weight != high {
			t.Errorf("even step %d: weight %s, want 31/64", i, c.Weight)
		}
		if i%2 == 1 && !c.Weight.Less(frac.New(5, 64)) {
			t.Errorf("odd step %d: weight %s, want < 5/64", i, c.Weight)
		}
	}
}

// TestChurnStreamInvariants checks the churn stream never leaves a task
// before Advanced confirmed its join, never reuses a name, and stays
// inside the churn window.
func TestChurnStreamInvariants(t *testing.T) {
	ts, err := NewTemplateStream(TemplateChurn, stats.NewStream(5, 2), "P", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	everJoined := map[string]bool{}
	flushed := map[string]bool{}
	var pending []string
	var buf []core.Command
	for round := 0; round < 300; round++ {
		buf = ts.Next(buf[:0], 8)
		for _, c := range buf {
			switch c.Op {
			case core.OpJoin:
				if everJoined[c.Task] {
					t.Fatalf("round %d: name %q reused", round, c.Task)
				}
				if !strings.HasPrefix(c.Task, "P-c") {
					t.Fatalf("round %d: churn join %q outside namespace", round, c.Task)
				}
				everJoined[c.Task] = true
				pending = append(pending, c.Task)
			case core.OpLeave:
				if !flushed[c.Task] {
					t.Fatalf("round %d: leave of %q before its join flushed", round, c.Task)
				}
				delete(flushed, c.Task)
			case core.OpReweight:
				if !strings.HasPrefix(c.Task, "P-a") {
					t.Fatalf("round %d: reweight of %q outside the anchors", round, c.Task)
				}
			default:
				t.Fatalf("round %d: unexpected op %v", round, c.Op)
			}
		}
		if alive := len(flushed) + len(pending); alive > churnWindow {
			t.Fatalf("round %d: %d churn tasks alive, window is %d", round, alive, churnWindow)
		}
		ts.Advanced()
		for _, name := range pending {
			flushed[name] = true
		}
		pending = pending[:0]
	}
	if len(everJoined) < 20 {
		t.Errorf("churn generated only %d distinct tasks over 2400 commands", len(everJoined))
	}
}

// TestTemplateDeterminism checks identical (template, seed, prefix)
// inputs generate identical streams.
func TestTemplateDeterminism(t *testing.T) {
	for _, name := range TemplateNames() {
		tmpl, err := TemplateByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *TemplateStream {
			ts, err := NewTemplateStream(tmpl, stats.NewStream(9, 9), "P", 4, 8)
			if err != nil {
				t.Fatal(err)
			}
			return ts
		}
		a, b := mk(), mk()
		sa := a.Setup(nil)
		sb := b.Setup(nil)
		a.Advanced()
		b.Advanced()
		ca := a.Next(sa, 100)
		cb := b.Next(sb, 100)
		if len(ca) != len(cb) {
			t.Fatalf("%s: %d vs %d commands", name, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("%s: cmd %d: %+v vs %+v", name, i, ca[i], cb[i])
			}
		}
	}
}
