package core

import (
	"fmt"
	"testing"

	"repro/internal/frac"
	"repro/internal/model"
	"repro/internal/stats"
)

// engine_test.go covers the event-driven engine's mechanical guarantees:
// scratch buffers must not retain stale *subtask pointers across slots
// (the pre-refactor eligibility buffer kept every scanned subtask alive
// until the next slot's scan overwrote it), the steady-state hot path must
// be allocation-free, and a stolen overhead quantum must occupy a CPU so
// that affinity assignment cannot double-book it.

func engineSystem(n int) (Config, model.System) {
	tasks := make([]model.Spec, n)
	for i := range tasks {
		tasks[i] = model.Spec{Name: string(rune('A'+i%26)) + "#" + string(rune('0'+i/26)), Weight: frac.New(1, int64(n+1))}
	}
	return Config{M: 2, Policy: PolicyOI, Police: true}, model.System{M: 2, Tasks: tasks}
}

// TestStepScratchBuffersCleared: after each Step the per-slot scratch
// buffers hold no subtask pointers beyond their logical length, so a
// subtask popped from the pool cannot be kept alive (or worse, observed)
// through a stale scratch reference.
func TestStepScratchBuffersCleared(t *testing.T) {
	cfg, sys := engineSystem(12)
	s := mustNew(t, cfg, sys)
	for i := 0; i < 100; i++ {
		s.Step()
		buf := s.runBuf[:cap(s.runBuf)]
		for j, p := range buf {
			if p != nil {
				t.Fatalf("slot %d: runBuf[%d] retains %v after Step", i, j, p)
			}
		}
		prev := s.prevRan[len(s.prevRan):cap(s.prevRan)]
		for j, p := range prev {
			if p != nil {
				t.Fatalf("slot %d: prevRan slack [%d] retains task %s", i, j, p.name)
			}
		}
	}
}

// TestStepSteadyStateAllocs: once the event heaps and pools are warm, a
// Step allocates nothing — the lazy accrual works in value-type rationals
// and the calendar reuses its backing arrays.
func TestStepSteadyStateAllocs(t *testing.T) {
	cfg, sys := engineSystem(64)
	s := mustNew(t, cfg, sys)
	s.RunTo(500) // warm up heaps, pools and scratch buffers
	avg := testing.AllocsPerRun(200, func() { s.Step() })
	if avg > 0.5 {
		t.Errorf("steady-state Step allocates %.2f objects/slot, want ~0", avg)
	}
}

// storm is a reweight storm at one pd2bench node-batch32 shard's shape:
// M=4, 64 tasks of weight 1/64, and 256 reweights a slot to 1/64 or
// 2/64, each on a random task, so most skip the change the last one
// left unenacted (Sec. 3.2).
type storm struct {
	s     *Scheduler
	r     *stats.RNG
	names []string
	w     [2]frac.Rat
}

func newStorm(t testing.TB, policy PolicyKind) *storm {
	t.Helper()
	st := &storm{r: stats.NewStream(25, 0), w: [2]frac.Rat{frac.New(1, 64), frac.New(2, 64)}}
	var tasks []model.Spec
	for i := 0; i < 64; i++ {
		st.names = append(st.names, fmt.Sprintf("t%d", i))
		tasks = append(tasks, model.Spec{Name: st.names[i], Weight: st.w[0]})
	}
	s, err := New(Config{M: 4, Policy: policy, Police: true}, model.System{M: 4, Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	st.s = s
	return st
}

// slot issues n reweights and steps one slot.
func (st *storm) slot(t testing.TB, n int) {
	for i := 0; i < n; i++ {
		if err := st.s.Initiate(st.names[st.r.Intn(64)], st.w[st.r.Intn(2)]); err != nil {
			t.Fatal(err)
		}
	}
	st.s.Step()
}

// TestStormCalendarsBounded: under a reweight storm each task holds at
// most one enact and one resolve entry, so neither calendar outgrows the
// task count. Before the two were indexed, 3,000 slots of this stream
// left 3,539 stale resolve entries under OI, and 8,486 stale enact
// entries under LJ.
func TestStormCalendarsBounded(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyOI, PolicyLJ} {
		t.Run(policy.String(), func(t *testing.T) {
			st := newStorm(t, policy)
			peak := [2]int{}
			for slot := 0; slot < 2000; slot++ {
				st.slot(t, 256)
				peak[0] = max(peak[0], len(st.s.evEnact.ev))
				peak[1] = max(peak[1], len(st.s.evResolve.ev))
			}
			if peak[0] > 64 || peak[1] > 64 {
				t.Errorf("peak calendar sizes: enact %d, resolve %d; want <= 64 (one per task)", peak[0], peak[1])
			}
			if m := st.s.Misses(); len(m) != 0 {
				t.Errorf("misses: %v", m)
			}
		})
	}
}

// TestReinitiateAllocs: a re-initiation that skips an unenacted change,
// plus the Step after it, allocates nothing under either policy: the
// pending enactment lives in the task by value and the enact and
// resolve calendars re-key the task's entry in place.
func TestReinitiateAllocs(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyOI, PolicyLJ} {
		t.Run(policy.String(), func(t *testing.T) {
			st := newStorm(t, policy)
			for slot := 0; slot < 300; slot++ {
				st.slot(t, 256) // warm up heaps, pools and scratch buffers
			}
			avg := testing.AllocsPerRun(200, func() { st.slot(t, 8) })
			if avg != 0 {
				t.Errorf("8 Initiates + Step allocate %.2f objects, want 0", avg)
			}
		})
	}
}

// TestLiveSummaryMatchesAllMetrics: Live and MaxAbsDrift give what a
// fold over AllMetrics gives, through joins (some held by condition J),
// departures (some held by rule L) and reweights, and Live allocates
// nothing.
func TestLiveSummaryMatchesAllMetrics(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyOI, PolicyLJ} {
		t.Run(policy.String(), func(t *testing.T) {
			st := newStorm(t, policy)
			s, r := st.s, st.r
			next, sawLeaving := 0, false
			for slot := 0; slot < 400; slot++ {
				if r.Intn(2) == 0 {
					name := fmt.Sprintf("j%d", next)
					next++
					if err := s.join(model.Spec{Name: name, Weight: frac.New(int64(1+r.Intn(8)), 64)}, true); err != nil {
						t.Fatal(err)
					}
					st.names = append(st.names, name)
				}
				if r.Intn(3) == 0 {
					_ = s.Depart(st.names[r.Intn(len(st.names))]) // refused when not active
				}
				for i := 0; i < 8; i++ {
					_ = s.Initiate(st.names[r.Intn(len(st.names))], st.w[r.Intn(2)])
				}
				s.Step()
				var want LiveSummary
				maxDrift := frac.Zero
				for _, m := range s.AllMetrics() {
					if m.Active {
						want.Active++
						want.SumAbsLag = want.SumAbsLag.Add(m.Lag.Abs())
						want.MaxDrift = frac.Max(want.MaxDrift, m.Drift.Abs())
					}
					if m.Leaving {
						want.Leaving++
					}
					maxDrift = frac.Max(maxDrift, m.MaxAbsDrift)
				}
				got := s.Live()
				sawLeaving = sawLeaving || got.Leaving > 0
				if got.Active != want.Active || got.Leaving != want.Leaving || !got.SumAbsLag.Eq(want.SumAbsLag) || !got.MaxDrift.Eq(want.MaxDrift) {
					t.Fatalf("slot %d: Live() = %+v, AllMetrics fold = %+v", slot, got, want)
				}
				if !s.MaxAbsDrift().Eq(maxDrift) {
					t.Fatalf("slot %d: MaxAbsDrift() = %v, AllMetrics max = %v", slot, s.MaxAbsDrift(), maxDrift)
				}
			}
			if got := testing.AllocsPerRun(50, func() { s.Live() }); got != 0 {
				t.Errorf("Live allocates %.2f objects, want 0", got)
			}
			if len(s.live) >= len(s.tasks) || !sawLeaving {
				t.Fatalf("history lacks departures: %d live of %d tasks, a Depart held by rule L: %v",
					len(s.live), len(s.tasks), sawLeaving)
			}
		})
	}
}

// TestStolenSlotOccupiesCPU: a stolen overhead quantum must mark its
// processor busy. Before the fix, the affinity pass could place a task on
// the stolen CPU, double-booking it (M+1 quanta of work in an M-processor
// slot) and corrupting the migration accounting.
func TestStolenSlotOccupiesCPU(t *testing.T) {
	sys := model.System{M: 2, Tasks: []model.Spec{
		{Name: "A", Weight: frac.Half},
		{Name: "B", Weight: frac.Half},
		{Name: "C", Weight: rat("2/5")},
	}}
	s := mustNew(t, Config{
		M: 2, Policy: PolicyOI, Police: true,
		OverheadOI:     frac.One, // every enactment steals one full slot
		RecordSchedule: true,
	}, sys)
	targets := []frac.Rat{rat("1/4"), rat("2/5")}
	stolen := 0
	for i := 0; i < 6; i++ {
		if err := s.Initiate("C", targets[i%2]); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 15; j++ {
			before := s.OverheadSlots()
			now := s.Now()
			s.Step()
			if s.OverheadSlots() == before {
				continue
			}
			stolen++
			entries := s.ScheduleEntries(now)
			if len(entries) > 1 {
				t.Errorf("t=%d: stolen slot scheduled %d quanta on the remaining CPU: %v", now, len(entries), entries)
			}
			for _, e := range entries {
				if e.CPU == 1 {
					t.Errorf("t=%d: task %s placed on the stolen CPU 1", now, e.Task)
				}
			}
		}
	}
	if stolen == 0 {
		t.Fatal("scenario never stole a slot; overhead accounting broken")
	}
	if len(s.Misses()) != 0 {
		t.Errorf("misses: %v", s.Misses())
	}
}
