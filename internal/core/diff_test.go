package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core/reference"
	"repro/internal/frac"
	"repro/internal/model"
	"repro/internal/stats"
)

// diff_test.go is the differential oracle for the event-driven engine:
// internal/core/reference preserves the original per-slot brute-force
// scan verbatim, and this test drives both engines through identical
// randomized AIS histories — joins, leaves, reweight initiations,
// intra-sporadic delays and AGIS absences — asserting byte-for-byte
// identical schedules (including processor assignment), misses,
// violations and exact-rational accounting every slot. Around every
// mutation, Step and Metrics read it also requires StateDigest's memo
// to match a fresh render. CI additionally runs it under the race
// detector (make test-race).
//
// The dense configurations issue several Initiates a slot, some on the
// same task, so each one skips the change the last left unenacted
// (Sec. 3.2); that is the path the indexed enact and resolve calendars
// re-key. Metrics reads and digest renders sync every task's lazy
// accrual, so one dense configuration checks only every 16th slot and
// lets the engine's own events move the lazy frontier in between.

type diffConfig struct {
	label  string
	m      int
	policy PolicyKind
	early  bool
	police bool
	heavy  bool
	ovOI   frac.Rat
	ovLJ   frac.Rat
	// dense is the number of extra Initiates a slot; every > 1 compares
	// metrics and digests only in slots now%every == every-1.
	dense int
	every model.Time
}

// hybridUseOI is the dense configurations' PolicyHybrid split: rules
// O/I for a change smaller than 1/8, leave/join otherwise.
func hybridUseOI(_ string, from, to frac.Rat) bool {
	return to.Sub(from).Abs().Less(frac.New(1, 8))
}

// randWeight draws a light (or, with heavy allowed, possibly heavy)
// admissible weight.
func randWeight(r *stats.RNG, heavy bool) frac.Rat {
	den := int64(2 + r.Intn(19)) // 2..20
	hi := den / 2
	if heavy {
		hi = den - 1
	}
	if hi < 1 {
		hi = 1
	}
	num := int64(1 + r.Intn(int(hi)))
	return frac.New(num, den)
}

func diffRun(t *testing.T, dc diffConfig, seed uint64, horizon model.Time) {
	t.Helper()
	r := stats.NewStream(seed, 0)

	// Initial task set: fill a random fraction of the capacity M.
	var tasks []model.Spec
	total := frac.Zero
	limit := frac.New(int64(dc.m)*4, 5) // target ~80% utilization
	for i := 0; len(tasks) < 12; i++ {
		w := randWeight(r, dc.heavy)
		if limit.Less(total.Add(w)) {
			break
		}
		total = total.Add(w)
		sp := model.Spec{Name: fmt.Sprintf("T%d", i), Weight: w}
		if r.Intn(3) == 0 {
			sp.Group = "G"
		}
		tasks = append(tasks, sp)
	}
	if len(tasks) == 0 {
		tasks = append(tasks, model.Spec{Name: "T0", Weight: frac.New(1, 4)})
	}
	sys := model.System{M: dc.m, Tasks: tasks}

	var useOI func(string, frac.Rat, frac.Rat) bool
	if dc.policy == PolicyHybrid {
		useOI = hybridUseOI
	}
	s, err := New(Config{
		M: dc.m, Policy: dc.policy, Police: dc.police, UseOI: useOI,
		EarlyRelease: dc.early, AllowHeavy: dc.heavy,
		CheckInvariants: true, RecordSchedule: true,
		OverheadOI: dc.ovOI, OverheadLJ: dc.ovLJ,
	}, sys)
	if err != nil {
		t.Fatalf("%s seed %d: New: %v", dc.label, seed, err)
	}
	ref, err := reference.New(reference.Config{
		M: dc.m, Policy: reference.PolicyKind(dc.policy), Police: dc.police, UseOI: useOI,
		EarlyRelease: dc.early, AllowHeavy: dc.heavy,
		CheckInvariants: true, RecordSchedule: true,
		OverheadOI: dc.ovOI, OverheadLJ: dc.ovLJ,
	}, sys)
	if err != nil {
		t.Fatalf("%s seed %d: reference.New: %v", dc.label, seed, err)
	}

	names := make([]string, len(tasks))
	for i, sp := range tasks {
		names[i] = sp.Name
	}
	nextJoin := len(tasks)

	// checked reports whether slot now compares metrics and digests.
	checked := func(now model.Time) bool {
		return dc.every <= 1 || now%dc.every == dc.every-1
	}

	// memo primes the StateDigest memo, runs f, and requires the digest
	// to match a fresh render: a mutator that leaves the memo standing
	// returns the pre-f digest here.
	memo := func(now model.Time, what string, f func()) {
		if !checked(now) {
			f()
			return
		}
		s.StateDigest()
		f()
		h := fnv.New64a()
		if err := s.WriteState(h); err != nil {
			t.Fatal(err)
		}
		if got, want := s.StateDigest(), h.Sum64(); got != want {
			t.Fatalf("%s seed %d t=%d: StateDigest %016x after %s, render %016x (stale memo)",
				dc.label, seed, now, got, what, want)
		}
	}

	// both applies the same mutation to each engine and requires error
	// parity: the engines must accept and reject identically.
	both := func(now model.Time, what string, fNew, fRef func() error) bool {
		var e1 error
		memo(now, what, func() { e1 = fNew() })
		e2 := fRef()
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("%s seed %d t=%d: %s error divergence: new=%v ref=%v",
				dc.label, seed, now, what, e1, e2)
		}
		return e1 == nil
	}

	for now := model.Time(0); now < horizon; now++ {
		// Random AIS events, identical streams into both engines.
		switch r.Intn(10) {
		case 0: // reweight a random task
			name := names[r.Intn(len(names))]
			w := randWeight(r, dc.heavy)
			both(now, "Initiate "+name,
				func() error { return s.Initiate(name, w) },
				func() error { return ref.Initiate(name, w) })
		case 1: // leave
			name := names[r.Intn(len(names))]
			both(now, "Leave "+name,
				func() error { return s.Leave(name) },
				func() error { return ref.Leave(name) })
		case 2: // join a new task
			sp := model.Spec{Name: fmt.Sprintf("T%d", nextJoin), Weight: randWeight(r, dc.heavy)}
			if both(now, "Join "+sp.Name,
				func() error { return s.Join(sp) },
				func() error { return ref.Join(sp) }) {
				names = append(names, sp.Name)
				nextJoin++
			}
		case 3: // intra-sporadic separation
			name := names[r.Intn(len(names))]
			sep := int64(1 + r.Intn(5))
			both(now, "DelayNext "+name,
				func() error { return s.DelayNext(name, sep) },
				func() error { return ref.DelayNext(name, sep) })
		case 4: // AGIS absence of a near-future subtask
			name := names[r.Intn(len(names))]
			ts, ok := s.byName[name]
			if !ok {
				break
			}
			idx := ts.absN + int64(1+r.Intn(3))
			both(now, "MarkAbsent "+name,
				func() error { return s.MarkAbsent(name, idx) },
				func() error { return ref.MarkAbsent(name, idx) })
		}

		// Dense re-initiation: some draws repeat the slot's last task.
		last := ""
		for i := 0; i < dc.dense; i++ {
			name := last
			if name == "" || r.Intn(2) == 0 {
				name = names[r.Intn(len(names))]
			}
			last = name
			w := randWeight(r, dc.heavy)
			both(now, "Initiate "+name,
				func() error { return s.Initiate(name, w) },
				func() error { return ref.Initiate(name, w) })
		}

		memo(now, "Step", s.Step)
		ref.Step()

		// Schedules must match entry-for-entry, including CPUs.
		a := s.ScheduleEntries(now)
		b := ref.ScheduleEntries(now)
		if len(a) != len(b) {
			t.Fatalf("%s seed %d t=%d: slot sizes %d vs %d (%v vs %v)",
				dc.label, seed, now, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i].Task != b[i].Task || a[i].Subtask != b[i].Subtask || a[i].CPU != b[i].CPU {
				t.Fatalf("%s seed %d t=%d: entry %d: %+v vs %+v",
					dc.label, seed, now, i, a[i], b[i])
			}
		}
		// Exact accounting must match for every task, every checked slot.
		if !checked(now) {
			continue
		}
		for _, name := range names {
			var m1 TaskMetrics
			var ok1 bool
			memo(now, "Metrics "+name, func() { m1, ok1 = s.Metrics(name) })
			m2, ok2 := ref.Metrics(name)
			if ok1 != ok2 {
				t.Fatalf("%s seed %d t=%d %s: presence %v vs %v", dc.label, seed, now, name, ok1, ok2)
			}
			if !ok1 {
				continue
			}
			if !m1.SchedWeight.Eq(m2.SchedWeight) || !m1.Weight.Eq(m2.Weight) ||
				m1.Scheduled != m2.Scheduled ||
				!m1.CumSW.Eq(m2.CumSW) || !m1.CumCSW.Eq(m2.CumCSW) || !m1.CumPS.Eq(m2.CumPS) ||
				!m1.Drift.Eq(m2.Drift) ||
				m1.Migrations != m2.Migrations || m1.Preemptions != m2.Preemptions ||
				m1.Misses != m2.Misses {
				t.Fatalf("%s seed %d t=%d %s: metrics diverge:\nnew: %+v\nref: %+v",
					dc.label, seed, now, name, m1, m2)
			}
		}
	}

	// Terminal global state.
	if h1, h2 := s.Holes(), ref.Holes(); h1 != h2 {
		t.Errorf("%s seed %d: holes %d vs %d", dc.label, seed, h1, h2)
	}
	if o1, o2 := s.OverheadSlots(), ref.OverheadSlots(); o1 != o2 {
		t.Errorf("%s seed %d: overhead slots %d vs %d", dc.label, seed, o1, o2)
	}
	m1, m2 := s.Misses(), ref.Misses()
	if len(m1) != len(m2) {
		t.Fatalf("%s seed %d: misses %v vs %v", dc.label, seed, m1, m2)
	}
	for i := range m1 {
		if m1[i].Task != m2[i].Task || m1[i].Subtask != m2[i].Subtask || m1[i].Deadline != m2[i].Deadline {
			t.Errorf("%s seed %d: miss %d: %+v vs %+v", dc.label, seed, i, m1[i], m2[i])
		}
	}
	v1, v2 := s.Violations(), ref.Violations()
	if len(v1) != len(v2) {
		t.Fatalf("%s seed %d: violation counts %d vs %d:\nnew: %v\nref: %v",
			dc.label, seed, len(v1), len(v2), v1, v2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Errorf("%s seed %d: violation %d: %q vs %q", dc.label, seed, i, v1[i], v2[i])
		}
	}
}

// TestDifferentialRandomizedAIS drives the event-driven engine and the
// frozen brute-force reference through identical randomized histories
// across the configuration matrix.
func TestDifferentialRandomizedAIS(t *testing.T) {
	configs := []diffConfig{
		{label: "oi-m1", m: 1, policy: PolicyOI, police: true},
		{label: "oi-m2-er", m: 2, policy: PolicyOI, police: true, early: true},
		{label: "oi-m4-heavy", m: 4, policy: PolicyOI, police: true, heavy: true},
		{label: "lj-m2", m: 2, policy: PolicyLJ, police: true},
		{label: "lj-m4-er-heavy", m: 4, policy: PolicyLJ, police: true, early: true, heavy: true},
		{label: "oi-m2-overhead", m: 2, policy: PolicyOI, police: true,
			ovOI: frac.New(1, 3), ovLJ: frac.New(1, 8)},
		{label: "oi-m2-nopolice", m: 2, policy: PolicyOI, police: false},
		{label: "dense-oi-m4", m: 4, policy: PolicyOI, police: true, dense: 4},
		{label: "dense-oi-m2-er", m: 2, policy: PolicyOI, police: true, early: true, dense: 4},
		{label: "dense-lj-m4", m: 4, policy: PolicyLJ, police: true, dense: 4},
		{label: "dense-lj-m2-er", m: 2, policy: PolicyLJ, police: true, early: true, dense: 4},
		{label: "dense-hybrid-m4", m: 4, policy: PolicyHybrid, police: true, dense: 4},
		{label: "dense-hybrid-m4-er-every16", m: 4, policy: PolicyHybrid, police: true, early: true,
			dense: 4, every: 16},
	}
	seeds := []uint64{1, 2, 3, 4, 5}
	horizon := model.Time(160)
	if testing.Short() {
		seeds = seeds[:2]
		horizon = 80
	}
	for _, dc := range configs {
		dc := dc
		t.Run(dc.label, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				diffRun(t, dc, seed, horizon)
			}
		})
	}
}
