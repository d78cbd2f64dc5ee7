package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/frac"
	"repro/internal/model"
	"repro/internal/stats"
)

// TestJoinWaitMatchesBoundaryFIFO pins condition J's wait in the
// engine to the rule an admission layer outside it would run: a FIFO
// of joins, retried at every slot boundary, whose head calls Join while
// it fits and blocks every join behind it. Random churn, admitted
// against requested weights as internal/serve admits it, drives one
// engine through Apply and a second one through that FIFO, under every
// policy, with and without early release, on 1, 2 and 4 processors.
// The schedule rows match at every slot, and WriteState matches at
// every boundary where no join waits: a waiting task is a name the
// engine knows and the FIFO's engine does not yet.
func TestJoinWaitMatchesBoundaryFIFO(t *testing.T) {
	policies := map[string]Config{
		"oi": {Policy: PolicyOI},
		"lj": {Policy: PolicyLJ},
		"hybrid": {Policy: PolicyHybrid, UseOI: func(_ string, from, to frac.Rat) bool {
			return to.Sub(from).Abs().Less(frac.New(1, 8))
		}},
	}
	for pname, base := range policies {
		for _, early := range []bool{false, true} {
			for _, m := range []int{1, 2, 4} {
				cfg := base
				cfg.M, cfg.EarlyRelease = m, early
				cfg.Police, cfg.CheckInvariants, cfg.RecordSchedule = true, true, true
				t.Run(fmt.Sprintf("%s/early=%v/m=%d", pname, early, m), func(t *testing.T) {
					waited := 0
					for seed := uint64(1); seed <= 8; seed++ {
						waited += joinWaitRun(t, cfg, seed)
					}
					t.Logf("%d joins waited", waited)
					if waited == 0 {
						t.Fatal("no join waited; the comparison is vacuous")
					}
				})
			}
		}
	}
}

// joinWaitRun plays one seed of churn on both engines and returns how
// many joins waited.
func joinWaitRun(t *testing.T, cfg Config, seed uint64) int {
	t.Helper()
	const horizon = 200
	r := stats.NewStream(seed, uint64(cfg.M)+16)
	sys := model.System{M: cfg.M}
	eng := mustNew(t, cfg, sys) // joins wait in the engine (Apply)
	ref := mustNew(t, cfg, sys) // joins wait in fifo (Join)
	var fifo []model.Spec

	// The admission books: each live task's requested weight, whose
	// total stays within M.
	capacity := frac.FromInt(int64(cfg.M))
	requested := map[string]frac.Rat{}
	total := frac.Zero
	var live []string
	waited := 0

	state := func(s *Scheduler) string {
		var b strings.Builder
		if err := s.WriteState(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	both := func(c Command) {
		errE, errR := eng.Apply(c), ref.Apply(c)
		if errE != nil || errR != nil {
			t.Fatalf("seed %d: %s: engine %v, fifo %v", seed, c, errE, errR)
		}
	}
	for now := model.Time(0); ; now++ {
		// The boundary: the FIFO's head joins while it fits.
		for len(fifo) > 0 && ref.Join(fifo[0]) == nil {
			fifo = fifo[1:]
		}
		if eng.JoinQueue() != len(fifo) {
			t.Fatalf("seed %d t=%d: %d joins wait in the engine, %d in the fifo", seed, now, eng.JoinQueue(), len(fifo))
		}
		if len(fifo) == 0 {
			if got, want := state(eng), state(ref); got != want {
				t.Fatalf("seed %d t=%d: states diverge:\n--- engine ---\n%s--- fifo ---\n%s", seed, now, got, want)
			}
		}
		if now == horizon {
			break
		}
		for k := r.Intn(4); k > 0; k-- {
			w := frac.New(int64(1+r.Intn(8)), 16)
			switch r.Intn(5) {
			case 0, 1:
				if capacity.Less(total.Add(w)) {
					continue
				}
				name := fmt.Sprintf("T%d", len(requested))
				requested[name] = w
				total = total.Add(w)
				live = append(live, name)
				if err := eng.Apply(Command{At: now, Op: OpJoin, Task: name, Weight: w}); err != nil {
					t.Fatalf("seed %d t=%d: join %s: %v", seed, now, name, err)
				}
				spec := model.Spec{Name: name, Weight: w}
				if len(fifo) > 0 || ref.Join(spec) != nil {
					fifo = append(fifo, spec)
				}
				if eng.Joined(name) != ref.Joined(name) {
					t.Fatalf("seed %d t=%d: %s joined: engine %v, fifo %v", seed, now, name, eng.Joined(name), ref.Joined(name))
				}
				if !eng.Joined(name) {
					waited++
				}
			case 2, 3:
				if len(live) == 0 {
					continue
				}
				name := live[r.Intn(len(live))]
				next := total.Sub(requested[name]).Add(w)
				if !ref.Joined(name) || capacity.Less(next) {
					continue // admission refuses a waiting task, and (W)
				}
				both(Command{At: now, Op: OpReweight, Task: name, Weight: w})
				requested[name] = w
				total = next
			case 4:
				if len(live) == 0 {
					continue
				}
				i := r.Intn(len(live))
				name := live[i]
				if !ref.Joined(name) {
					continue
				}
				both(Command{At: now, Op: OpLeave, Task: name})
				total = total.Sub(requested[name])
				live = append(live[:i], live[i+1:]...)
			}
		}
		eng.Step()
		ref.Step()
		if got, want := fmt.Sprint(eng.ScheduleEntries(now)), fmt.Sprint(ref.ScheduleEntries(now)); got != want {
			t.Fatalf("seed %d: slot %d ran %s in the engine, %s behind the fifo", seed, now, got, want)
		}
	}
	if len(eng.Misses()) != 0 || len(eng.Violations()) != 0 {
		t.Fatalf("seed %d: misses %v, violations %v", seed, eng.Misses(), eng.Violations())
	}
	return waited
}

// TestJoinWaitsInOrder: Apply's join waits while condition J refuses
// it, and a later join waits behind it even when it fits; Join still
// refuses and does not queue. Step lets the waiting joins in, in order,
// once the weight ahead of them has left.
func TestJoinWaitsInOrder(t *testing.T) {
	s := mustNew(t, Config{M: 1, Police: true, CheckInvariants: true}, model.System{M: 1})
	join := func(name string, w frac.Rat) {
		t.Helper()
		if err := s.Apply(Command{At: s.Now(), Op: OpJoin, Task: name, Weight: w}); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
	}
	join("A", frac.New(1, 2))
	join("B", frac.New(1, 4))
	s.Step()
	join("C", frac.New(1, 2)) // condition J refuses: waits
	join("D", frac.New(1, 4)) // would fit, but C is ahead
	if err := s.Join(model.Spec{Name: "E", Weight: frac.New(1, 2)}); err == nil {
		t.Fatal("Join of E past condition J succeeded")
	}
	if s.JoinQueue() != 2 || s.Joined("C") || s.Joined("D") || !s.Joined("A") || s.Joined("E") {
		t.Fatalf("queue %d, joined A/C/D/E %v/%v/%v/%v; want C and D waiting",
			s.JoinQueue(), s.Joined("A"), s.Joined("C"), s.Joined("D"), s.Joined("E"))
	}
	if m := mustMetrics(t, s, "C"); m.Active || m.Leaving {
		t.Fatalf("waiting C reads active %v, leaving %v", m.Active, m.Leaving)
	}
	if err := s.Apply(Command{At: s.Now(), Op: OpReweight, Task: "C", Weight: frac.New(1, 4)}); err == nil {
		t.Fatal("reweight of a waiting task succeeded")
	}
	if err := s.Apply(Command{At: s.Now(), Op: OpLeave, Task: "A"}); err != nil {
		t.Fatal(err)
	}
	if s.Joined("C") {
		t.Fatal("C entered before a Step")
	}
	for s.JoinQueue() > 0 && s.Now() < 20 {
		s.Step()
	}
	if !s.Joined("C") || !s.Joined("D") || !s.TotalSchedWeight().Eq(frac.One) {
		t.Fatalf("at t=%d: C %v, D %v, total %s; want both in at weight 1",
			s.Now(), s.Joined("C"), s.Joined("D"), s.TotalSchedWeight())
	}
}
