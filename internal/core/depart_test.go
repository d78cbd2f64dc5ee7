package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/frac"
	"repro/internal/model"
	"repro/internal/stats"
)

// TestDepartWaitsForRuleL: a lone 1/8 task on two processors runs one
// subtask per slot under early release, so by t=3 it has run subtasks
// 1-3 and rule L holds it until d(T_3) = 24. Depart at t=3 stops its
// releases at once and leaves it at 24, where Leave retried every slot
// never gets: each slot adds another subtask ahead of the window.
// Without early release the same call leaves at d(T_1) = 8.
func TestDepartWaitsForRuleL(t *testing.T) {
	for _, tc := range []struct {
		early bool
		leave model.Time
	}{{true, 24}, {false, 8}} {
		t.Run(fmt.Sprintf("early=%v", tc.early), func(t *testing.T) {
			cfg := Config{M: 2, Police: true, CheckInvariants: true, EarlyRelease: tc.early, RecordSubtasks: true}
			s := mustNew(t, cfg, model.System{M: 2})
			if err := s.Apply(Command{Op: OpJoin, Task: "T", Weight: frac.New(1, 8)}); err != nil {
				t.Fatal(err)
			}
			s.RunTo(3)
			if err := s.Leave("T"); !errors.Is(err, ErrLeaveTooEarly) {
				t.Fatalf("Leave at t=3 answered %v, want ErrLeaveTooEarly", err)
			}
			lastAbs := func() int64 {
				h := s.SubtaskHistory("T")
				return h[len(h)-1].Abs
			}
			before := lastAbs()
			if err := s.Depart("T"); err != nil {
				t.Fatal(err)
			}
			if err := s.Depart("T"); !errors.Is(err, ErrNotActive) {
				t.Fatalf("second Depart answered %v, want ErrNotActive", err)
			}
			if err := s.Initiate("T", frac.New(1, 4)); !errors.Is(err, ErrNotActive) {
				t.Fatalf("Initiate of a departing task answered %v, want ErrNotActive", err)
			}
			for s.Now() <= tc.leave {
				if m := mustMetrics(t, s, "T"); !m.Active || !m.Leaving {
					t.Fatalf("at t=%d: active %v, leaving %v; want both until slot %d is stepped",
						s.Now(), m.Active, m.Leaving, tc.leave)
				}
				s.Step()
			}
			if m := mustMetrics(t, s, "T"); m.Active || m.Leaving {
				t.Fatalf("after slot %d: active %v, leaving %v; want neither", tc.leave, m.Active, m.Leaving)
			}
			if got := lastAbs(); got > before {
				t.Fatalf("released subtask %d after the depart at t=3 (last before it: %d)", got, before)
			}
			if !s.TotalSchedWeight().IsZero() {
				t.Fatalf("total scheduling weight %s after the leave, want 0", s.TotalSchedWeight())
			}
			if len(s.Misses()) != 0 || len(s.Violations()) != 0 {
				t.Fatalf("misses %v, violations %v", s.Misses(), s.Violations())
			}
		})
	}
}

// departRule is the slot Depart's task leaves in, read from its
// subtask history when the call returns: max(now, d+b) of the last
// unhalted subtask. A task Leave could take out at once has halted
// everything after its last scheduled subtask, whose d+b has passed.
func departRule(s *Scheduler, name string) (model.Time, int) {
	h := s.SubtaskHistory(name)
	at := s.Now()
	for i := len(h) - 1; i >= 0; i-- {
		if !h[i].Halted {
			if d := h[i].Deadline + model.Time(h[i].BBit); d > at {
				at = d
			}
			break
		}
	}
	return at, len(h)
}

// TestDepartProperty drives random joins, reweights and departs through
// Apply under every policy, with and without early release, on 1, 2
// and 4 processors. Every Depart of an active, non-leaving task returns
// nil, the task releases nothing afterwards, and it leaves in exactly
// the slot departRule predicted when the call returned. No subtask
// misses, no invariant breaks, and the recorded log replays to the same
// digest.
func TestDepartProperty(t *testing.T) {
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
				cfg.Police, cfg.CheckInvariants, cfg.RecordSubtasks = true, true, true
				t.Run(fmt.Sprintf("%s/early=%v/m=%d", pname, early, m), func(t *testing.T) {
					for seed := uint64(1); seed <= 4; seed++ {
						departPropertyRun(t, cfg, seed)
					}
				})
			}
		}
	}
}

func departPropertyRun(t *testing.T, cfg Config, seed uint64) {
	t.Helper()
	const horizon = 160
	r := stats.NewStream(seed, uint64(cfg.M))
	sys := model.System{M: cfg.M}
	s := mustNew(t, cfg, sys)
	type departure struct {
		at       model.Time
		released int
	}
	departs := map[string]departure{}
	var names []string
	var log []Command
	apply := func(c Command) error {
		err := s.Apply(c)
		if err == nil {
			log = append(log, c)
		}
		return err
	}
	for now := model.Time(0); now < horizon; now++ {
		for k := r.Intn(3); k > 0; k-- {
			switch r.Intn(4) {
			case 0:
				// Join, not Apply: a join condition J refuses fails instead
				// of waiting, so every name in names has joined.
				name := fmt.Sprintf("T%d", len(names))
				w := frac.New(int64(1+r.Intn(8)), 16)
				if s.Join(model.Spec{Name: name, Weight: w}) == nil {
					log = append(log, Command{At: now, Op: OpJoin, Task: name, Weight: w})
					names = append(names, name)
				}
			case 1, 2:
				if len(names) == 0 {
					continue
				}
				name := names[r.Intn(len(names))]
				err := apply(Command{At: now, Op: OpReweight, Task: name, Weight: frac.New(int64(1+r.Intn(8)), 16)})
				if _, ok := departs[name]; ok && !errors.Is(err, ErrNotActive) {
					t.Fatalf("seed %d t=%d: reweight of departing %s answered %v, want ErrNotActive", seed, now, name, err)
				}
			case 3:
				if len(names) == 0 {
					continue
				}
				name := names[r.Intn(len(names))]
				m := mustMetrics(t, s, name)
				err := apply(Command{At: now, Op: OpLeave, Task: name})
				if !m.Active || m.Leaving {
					if err == nil {
						t.Fatalf("seed %d t=%d: depart of inactive or leaving %s succeeded", seed, now, name)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d t=%d: depart %s: %v", seed, now, name, err)
				}
				at, released := departRule(s, name)
				departs[name] = departure{at, released}
			}
		}
		// Slot now: a task departing at or before it must be gone once
		// it is stepped, and any other departing task must still run.
		s.Step()
		for name, d := range departs {
			m := mustMetrics(t, s, name)
			if gone := !m.Active; gone != (d.at <= now) {
				t.Fatalf("seed %d: %s after slot %d: active %v, leaving %v; rule L slot %d",
					seed, name, now, m.Active, m.Leaving, d.at)
			}
			if m.Leaving == (d.at <= now) {
				t.Fatalf("seed %d: %s after slot %d: leaving %v; rule L slot %d", seed, name, now, m.Leaving, d.at)
			}
			if n := len(s.SubtaskHistory(name)); n != d.released {
				t.Fatalf("seed %d: %s has %d subtasks after slot %d, %d when it departed", seed, name, n, now, d.released)
			}
		}
	}
	if len(departs) == 0 {
		t.Fatalf("seed %d: no depart ran", seed)
	}
	if len(s.Misses()) != 0 || len(s.Violations()) != 0 {
		t.Fatalf("seed %d: misses %v, violations %v", seed, s.Misses(), s.Violations())
	}
	replayed, err := Replay(cfg, sys, log, horizon)
	if err != nil {
		t.Fatalf("seed %d: replay: %v", seed, err)
	}
	if replayed.StateDigest() != s.StateDigest() {
		t.Fatalf("seed %d: replayed digest %016x, live %016x", seed, replayed.StateDigest(), s.StateDigest())
	}
}
