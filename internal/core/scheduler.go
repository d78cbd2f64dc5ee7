package core

import (
	"errors"
	"fmt"

	"repro/internal/frac"
	"repro/internal/model"
)

// PolicyKind selects how weight-change requests are carried out.
type PolicyKind int

const (
	// PolicyOI applies the paper's fine-grained rules O and I (PD²-OI).
	PolicyOI PolicyKind = iota
	// PolicyLJ reweights by leaving and rejoining per rules L and J
	// (PD²-LJ), the coarse-grained baseline.
	PolicyLJ
	// PolicyHybrid chooses OI or LJ per event via Config.UseOI — the
	// efficiency-versus-accuracy knob of the companion paper.
	PolicyHybrid
)

func (p PolicyKind) String() string {
	switch p {
	case PolicyOI:
		return "PD2-OI"
	case PolicyLJ:
		return "PD2-LJ"
	case PolicyHybrid:
		return "PD2-Hybrid"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// TieBreak orders two tasks that are tied on deadline and b-bit. It returns
// a negative value if task a should be scheduled first, positive if b
// should, and 0 to fall back to task-id order. The paper's examples fix
// such tie-breaks ("all ties are broken in favor of tasks from C").
//
// Implementations run inside the slot loop's priority comparisons and
// must be allocation-free (the loop is //lint:noalloc; see docs/LINT.md).
type TieBreak func(aName, aGroup, bName, bGroup string) int

// FavorGroup returns a TieBreak that prefers tasks in the named group.
func FavorGroup(group string) TieBreak {
	return func(_, ag, _, bg string) int {
		switch {
		case ag == group && bg != group:
			return -1
		case bg == group && ag != group:
			return 1
		default:
			return 0
		}
	}
}

// MissEvent records a deadline miss: subtask Subtask of Task was not
// complete by Deadline. Under PD²-OI and PD²-LJ with valid weights this
// never happens (Theorem 2).
type MissEvent struct {
	Task     string
	Subtask  int64 // absolute subtask index
	Deadline model.Time
}

// DriftEvent records a drift update: at the release (time At) of an
// epoch-starting subtask, the task's drift became Value (Eqn (5)).
type DriftEvent struct {
	At    model.Time
	Value frac.Rat
}

// Config parameterizes a Scheduler.
type Config struct {
	// M is the number of processors (>= 1).
	M int
	// Policy selects the reweighting scheme. Default PolicyOI.
	Policy PolicyKind
	// UseOI decides, for PolicyHybrid, whether a particular request is
	// handled by rules O/I (true) or by leave/join (false). Ignored by the
	// other policies. Nil means always OI.
	UseOI func(task string, from, to frac.Rat) bool
	// TieBreak breaks final priority ties. Nil means task-creation order.
	TieBreak TieBreak
	// Police enforces property (W): weight increases are deferred while the
	// total scheduling weight would exceed M. Strongly recommended; the
	// deadline guarantee of Theorem 2 requires (W).
	Police bool
	// RecordSchedule keeps a per-slot log of which tasks were scheduled,
	// for tests and Gantt rendering. Costs memory proportional to horizon.
	RecordSchedule bool
	// RecordDriftEvents keeps the per-task drift event history (needed for
	// per-event drift analyses such as the Theorem 5 property test).
	RecordDriftEvents bool
	// CheckInvariants enables internal consistency assertions (property (V),
	// allocation bounds); violations are recorded and retrievable via
	// Violations. Intended for tests.
	CheckInvariants bool
	// EarlyRelease enables the ERfair extension the paper's Sec. 2 footnote
	// mentions: a subtask becomes eligible as soon as its predecessor is
	// complete, even before its release time. Deadlines (and hence
	// priorities) are unchanged, so correctness is preserved while idle
	// slots shrink.
	EarlyRelease bool
	// AllowHeavy admits tasks of weight up to 1, scheduled with the full
	// PD² priority (group-deadline second tie-break). Reweighting remains
	// restricted to light tasks — the paper's rules (and their proofs)
	// cover weights at most 1/2 only.
	AllowHeavy bool

	// Overhead modeling (the "efficiency" side of the companion paper's
	// efficiency-versus-accuracy trade-off; Sec. 6 notes that reweighting
	// N tasks simultaneously requires Ω(max(N, M log N)) time under PD²-OI
	// versus O(M log N) under PD²-LJ). Each enacted weight change charges
	// processor time, expressed as a fraction of a quantum; whenever the
	// accumulated debt reaches a full quantum, one processor-slot is stolen
	// from the schedule. Zero values (the default) model free reweighting,
	// matching the paper's simulations, which found measured overheads
	// (~5µs against a 1ms quantum) negligible.
	OverheadOI frac.Rat // cost per rules-O/I enactment
	OverheadLJ frac.Rat // cost per leave/join enactment

	// RecordSubtasks retains every released subtask's parameters for later
	// inspection (SubtaskHistory). Used by differential tests that replay
	// the ideal-schedule definitions independently.
	RecordSubtasks bool
}

// SubtaskInfo is a read-only record of one released subtask
// (Config.RecordSubtasks).
type SubtaskInfo struct {
	Abs        int64 // absolute index
	N          int64 // epoch-relative index
	Release    model.Time
	Deadline   model.Time
	BBit       int64
	EpochStart bool
	Scheduled  bool
	SchedSlot  model.Time
	Halted     bool
	HaltTime   model.Time
	Absent     bool
	SWCum      frac.Rat   // A(I_SW, T_j, 0, now)
	SWDone     bool       // completed in I_SW
	SWDoneTime model.Time // D(I_SW, T_j) if complete
}

// SlotEntry records one scheduled quantum: which subtask ran and on which
// processor.
type SlotEntry struct {
	Task    string
	Subtask int64 // absolute subtask index
	CPU     int
}

// Scheduler is the PD² engine for adaptable (AIS) task systems.
//
// The engine is event-driven: per-kind calendars (min-heaps keyed by
// model.Time; see calendar.go) hold pending joins, enactments, releases,
// ERfair speculation candidates, subtask deadlines and waiter
// resolutions, and a priority-indexed ready heap holds each task's
// offered subtask, so a Step touches only the tasks with an event due
// now. Ideal-schedule accrual is advanced lazily in closed form (see
// lazy.go). The original brute-force per-slot loop is preserved verbatim
// in internal/core/reference as a differential oracle; both engines
// produce byte-for-byte identical schedules, metrics, misses and drifts.
type Scheduler struct {
	cfg      Config
	now      model.Time
	tasks    []*taskState
	byName   map[string]*taskState
	totalSwt frac.Rat
	// live holds the joined, not-left tasks in no fixed order (each at
	// its liveIdx), so Live folds O(live tasks), not O(history).
	live []*taskState
	// maxAbsDrift is the largest |drift| any task has reached: the max
	// of every task's TaskMetrics.MaxAbsDrift, kept by recordDrift.
	maxAbsDrift frac.Rat

	schedule   [][]SlotEntry // per-slot scheduled quanta (RecordSchedule)
	misses     []MissEvent
	drifts     map[string][]DriftEvent
	violations []string

	cpuBusy []bool // scratch: per-slot processor occupancy
	holes   int64  // total idle processor-slots so far

	overheadDebt  frac.Rat // accumulated reweighting cost, in quanta
	overheadSlots int64    // processor-slots stolen to pay the debt

	// Calendar heaps (see calendar.go). seq makes pop order deterministic;
	// markGen dedupes candidates within one pop phase.
	seq       uint64
	markGen   uint64
	evJoin    eventHeap // deferred joins of the initial system
	evEnact   eventHeap // concrete enactment times (indexed)
	evRelease eventHeap // concrete release times
	evER      eventHeap // ERfair speculation candidates
	evMiss    eventHeap // subtask deadlines (miss detection)
	evResolve eventHeap // D(I_SW,·)-waiter resolution forecasts (indexed)

	// joinQ holds the joins Apply could not let in yet, in admission
	// order: condition J refused the head, which blocks the rest. Step
	// lets them in at the end of a slot.
	joinQ []*taskState

	ready readyHeap // tasks with an offered (eligible) subtask

	dueBuf   []*taskState // scratch: tasks due in the current phase
	missBuf  []tevent     // scratch: validated miss events of the slot
	runBuf   []*subtask   // scratch: the slot's scheduled subtasks
	prevRan  []*taskState // tasks scheduled in the previous slot
	curRan   []*taskState // tasks scheduled in the current slot
	stateBuf []byte       // scratch: retained canonical-state render (digest.go)

	// digest memoizes StateDigest while digestOK; every exported
	// mutator clears digestOK on entry.
	digest   uint64
	digestOK bool

	subPool []*subtask // free list of retired subtask records
}

// New builds a scheduler over the given system. Tasks with Spec.Join == 0
// join immediately; later joiners enter at their join time. Weights must be
// at most 1/2 (the paper's scope) and the initial total weight at most M.
func New(cfg Config, sys model.System) (*Scheduler, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cfg.M == 0 {
		cfg.M = sys.M
	}
	if cfg.M != sys.M {
		return nil, fmt.Errorf("core: config M=%d disagrees with system M=%d", cfg.M, sys.M)
	}
	s := &Scheduler{
		cfg:    cfg,
		byName: make(map[string]*taskState, len(sys.Tasks)),
		drifts: make(map[string][]DriftEvent),
	}
	s.ready.sched = s
	s.evEnact = eventHeap{indexed: true, slot: calSlotEnact}
	s.evResolve = eventHeap{indexed: true, slot: calSlotResolve}
	for _, spec := range sys.Tasks {
		if err := checkAdmissibleWeight(spec.Weight, cfg.AllowHeavy); err != nil {
			return nil, fmt.Errorf("core: task %s: %w", spec.Name, err)
		}
		ts := &taskState{
			id:    len(s.tasks),
			name:  spec.Name,
			group: spec.Group,
			join:  spec.Join,
			wt:    spec.Weight,
			swt:   spec.Weight,
			nextRel: pendingRelease{
				at: noTime,
			},
			lastCPU:     -1,
			lastRunSlot: noTime,
			readyIdx:    -1,
			calIdx:      noCalIdx,
		}
		s.tasks = append(s.tasks, ts)
		s.byName[ts.name] = ts
	}
	// Capacity check over the time-0 joiners.
	initial := frac.Zero
	for _, ts := range s.tasks {
		if ts.join == 0 {
			initial = initial.Add(ts.wt)
		}
	}
	if frac.FromInt(int64(cfg.M)).Less(initial) {
		return nil, fmt.Errorf("core: initial total weight %s exceeds M=%d", initial, cfg.M)
	}
	for _, ts := range s.tasks {
		if ts.join == 0 {
			s.joinNow(ts)
		} else {
			s.pushEvent(evKindJoin, tevent{at: ts.join, ts: ts})
		}
	}
	return s, nil
}

// calendar maps an event kind to its heap. The switch is the single
// kind-dispatch point of the engine and is kept exhaustive by pd2lint's
// eventexhaust check: adding an event kind fails lint until a heap (and
// its pop-time validation) exists for it. The trailing panic names the
// invariant instead of silently mis-filing events.
func (s *Scheduler) calendar(k eventKind) *eventHeap {
	switch k {
	case evKindJoin:
		return &s.evJoin
	case evKindEnact:
		return &s.evEnact
	case evKindRelease:
		return &s.evRelease
	case evKindER:
		return &s.evER
	case evKindMiss:
		return &s.evMiss
	case evKindResolve:
		return &s.evResolve
	}
	panic(fmt.Sprintf("core: calendar: unknown event kind %d (every eventKind must have a heap)", uint8(k)))
}

// pendingEvents returns the total number of queued calendar entries
// across every kind (stale entries included); used by tests to assert
// the calendars drain.
func (s *Scheduler) pendingEvents() int {
	n := 0
	for k := eventKind(0); k < numEventKinds; k++ {
		n += len(s.calendar(k).ev)
	}
	return n
}

// pushEvent stamps the event with the next push sequence number and adds
// it to the calendar of the given kind; in an indexed calendar it re-keys
// the task's one entry instead.
func (s *Scheduler) pushEvent(k eventKind, e tevent) {
	s.seq++
	e.seq = s.seq
	s.calendar(k).push(e)
}

// joinNow activates a task at the current time and schedules its first
// subtask release (a weight "enactment" at join, per Def. 1).
func (s *Scheduler) joinNow(ts *taskState) {
	ts.joined = true
	ts.join = s.now
	ts.liveIdx = len(s.live)
	s.live = append(s.live, ts)
	ts.accrSynced = s.now
	ts.psSynced = s.now
	s.totalSwt = s.totalSwt.Add(ts.swt)
	ts.nextRel = pendingRelease{at: s.now, epochStart: true}
	s.pushEvent(evKindRelease, tevent{at: s.now, ts: ts})
	if s.cfg.RecordSubtasks {
		ts.swtHist = append(ts.swtHist, WeightChange{At: s.now, W: ts.swt})
	}
}

// Now returns the current time: Step has simulated slots [0, Now).
func (s *Scheduler) Now() model.Time { return s.now }

// M returns the processor count.
func (s *Scheduler) M() int { return s.cfg.M }

// TotalSchedWeight returns the current total scheduling weight.
func (s *Scheduler) TotalSchedWeight() frac.Rat { return s.totalSwt }

// Misses returns all deadline misses recorded so far.
func (s *Scheduler) Misses() []MissEvent { return s.misses }

// Violations returns internal invariant violations recorded so far
// (Config.CheckInvariants must be set). A correct engine records none.
func (s *Scheduler) Violations() []string { return s.violations }

// Holes returns the total number of idle processor-slots so far (slots
// stolen for reweighting overhead are not counted as holes).
func (s *Scheduler) Holes() int64 { return s.holes }

// OverheadSlots returns the processor-slots consumed by reweighting
// overhead so far (Config.OverheadOI/OverheadLJ).
func (s *Scheduler) OverheadSlots() int64 { return s.overheadSlots }

// DriftEvents returns the recorded drift-update history of a task
// (Config.RecordDriftEvents must be set).
func (s *Scheduler) DriftEvents(name string) []DriftEvent { return s.drifts[name] }

// ScheduleRow returns the names of the tasks scheduled in slot t
// (Config.RecordSchedule must be set).
func (s *Scheduler) ScheduleRow(t model.Time) []string {
	entries := s.ScheduleEntries(t)
	if entries == nil {
		return nil
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Task
	}
	return names
}

// ScheduleEntries returns the quanta scheduled in slot t with subtask
// indices and processor assignments (Config.RecordSchedule must be set).
func (s *Scheduler) ScheduleEntries(t model.Time) []SlotEntry {
	if t < 0 || int(t) >= len(s.schedule) {
		return nil
	}
	return s.schedule[t]
}

// TaskNames returns the names of all tasks in creation order.
func (s *Scheduler) TaskNames() []string {
	names := make([]string, len(s.tasks))
	for i, ts := range s.tasks {
		names[i] = ts.name
	}
	return names
}

// SubtaskHistory returns records of every subtask the task has released
// (Config.RecordSubtasks must be set). Rolled-back ERfair speculations are
// excluded.
func (s *Scheduler) SubtaskHistory(name string) []SubtaskInfo {
	ts, ok := s.byName[name]
	if !ok {
		return nil
	}
	s.syncTask(ts, s.now)
	out := make([]SubtaskInfo, 0, len(ts.history))
	for _, sub := range ts.history {
		if sub.abs > ts.absN { // rolled back
			continue
		}
		out = append(out, SubtaskInfo{
			Abs: sub.abs, N: sub.n,
			Release: sub.release, Deadline: sub.deadline, BBit: sub.bbit,
			EpochStart: sub.epochStart,
			Scheduled:  sub.scheduled, SchedSlot: sub.schedSlot,
			Halted: sub.halted, HaltTime: sub.haltTime,
			Absent: sub.absent,
			SWCum:  sub.swCum, SWDone: sub.swDone, SWDoneTime: sub.swDoneTime,
		})
	}
	return out
}

// Metrics returns a snapshot of one task's accounting. The boolean is false
// if the task is unknown.
func (s *Scheduler) Metrics(name string) (TaskMetrics, bool) {
	ts, ok := s.byName[name]
	if !ok {
		return TaskMetrics{}, false
	}
	s.syncTask(ts, s.now)
	return ts.metrics(), true
}

// AllMetrics returns snapshots for every task, in creation order.
func (s *Scheduler) AllMetrics() []TaskMetrics {
	out := make([]TaskMetrics, len(s.tasks))
	for i, ts := range s.tasks {
		s.syncTask(ts, s.now)
		out[i] = ts.metrics()
	}
	return out
}

// LiveSummary folds the tasks that hold scheduling weight: what a
// status reads from AllMetrics, without a row per task ever held.
type LiveSummary struct {
	Active    int      // tasks with TaskMetrics.Active
	Leaving   int      // tasks with TaskMetrics.Leaving (all Active)
	SumAbsLag frac.Rat // Σ |TaskMetrics.Lag| over the Active tasks
	MaxDrift  frac.Rat // max |TaskMetrics.Drift| over the Active tasks, now
}

// Live returns the LiveSummary in one pass over the live tasks. It
// syncs them as AllMetrics does (departed tasks are frozen), allocates
// nothing, and costs O(live tasks) however many tasks have left.
func (s *Scheduler) Live() LiveSummary {
	var sum LiveSummary
	for _, ts := range s.live {
		s.syncTask(ts, s.now)
		sum.Active++
		if ts.departing() {
			sum.Leaving++
		}
		sum.SumAbsLag = sum.SumAbsLag.Add(ts.cumCSW.Sub(frac.FromInt(ts.scheduledQuanta)).Abs())
		sum.MaxDrift = frac.Max(sum.MaxDrift, ts.drift.Abs())
	}
	return sum
}

// Requesting calls f for each task that holds requested weight: every
// active task that is not leaving, with its actual weight wt(T, now),
// and every join condition J holds, with the weight it asked for and
// held set. It allocates nothing and costs O(live tasks + held joins)
// however many tasks have left, so an admission layer can rebuild its
// books from it.
func (s *Scheduler) Requesting(f func(name string, wt frac.Rat, held bool)) {
	for _, ts := range s.live {
		if !ts.departing() {
			f(ts.name, ts.wt, false)
		}
	}
	for _, ts := range s.joinQ {
		f(ts.name, ts.wt, true)
	}
}

// MaxAbsDrift returns the largest |drift| any task has reached, the
// max over AllMetrics' MaxAbsDrift, in O(1).
func (s *Scheduler) MaxAbsDrift() frac.Rat { return s.maxAbsDrift }

// Errors returned by the mutation methods.
var (
	ErrUnknownTask = errors.New("core: unknown task")
	ErrNotActive   = errors.New("core: task is not active")
	// ErrLeaveTooEarly reports a Leave attempted before rule L permits it
	// (now < d(T_i) + b(T_i) for the last scheduled subtask). Depart, which
	// OpLeave commands run, never returns it: it waits for rule L instead.
	ErrLeaveTooEarly = errors.New("core: leave violates rule L")
)

// Initiate requests a weight change for the named task, effective at the
// current time (i.e. applied to the next Step). The actual weight wt(T, t)
// changes immediately — I_PS begins allocating at the new rate — while the
// scheduling weight changes when the policy enacts the request.
func (s *Scheduler) Initiate(name string, v frac.Rat) error {
	s.digestOK = false
	ts, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	if !ts.joined || ts.left || ts.departing() {
		return fmt.Errorf("%w: %s", ErrNotActive, name)
	}
	if err := model.CheckLightWeight(v); err != nil {
		return fmt.Errorf("core: reweight %s: %w", name, err)
	}
	if model.IsHeavy(ts.swt) {
		return fmt.Errorf("core: reweight %s: task is heavy (weight %s); the paper's rules cover light tasks only", name, ts.swt)
	}
	// A request for the current scheduling weight with nothing pending is a
	// no-op: there is no change to enact.
	if v.Eq(ts.swt) && !ts.enact.pending && !ts.ljLeaving && ts.nextRel.waitD == nil {
		s.syncPS(ts, s.now) // wt changes the I_PS rate from now on
		ts.wt = v
		return nil
	}
	// Sync-before-mutation: materialize the lazy accrual state at t_c so
	// the rules below observe exactly what the per-slot engine would.
	s.syncTask(ts, s.now)
	ts.initiations++
	ts.wt = v // I_PS switches to the new weight at initiation
	useOI := true
	switch s.cfg.Policy {
	case PolicyLJ:
		useOI = false
	case PolicyHybrid:
		if s.cfg.UseOI != nil {
			useOI = s.cfg.UseOI(name, ts.swt, v)
		}
	}
	// A new initiation skips any previously initiated but unenacted event
	// (Sec. 3.2), so cancel pending enactments before applying the rules.
	ts.enact = pendingEnact{}
	// Under ERfair a successor may have been instantiated speculatively
	// (nominal release in the future). The reweighting rules reason about
	// subtasks released at or before t_c, so speculation must be unwound:
	// an unscheduled speculative subtask is rolled back entirely; one that
	// already executed keeps its quantum but is retired from the ideal
	// trackers (its abandoned epoch will never accrue).
	s.unwindSpeculation(ts)
	if useOI {
		s.initiateOI(ts, v)
	} else {
		s.initiateLJ(ts, v)
	}
	// Register the resulting calendar entries: a concrete enactment or
	// release time, or a waiter-resolution forecast.
	if e := &ts.enact; e.pending && e.waitD == nil {
		s.pushEvent(evKindEnact, tevent{at: e.at, ts: ts})
	}
	if r := &ts.nextRel; r.waitD == nil && r.at != noTime {
		s.pushEvent(evKindRelease, tevent{at: r.at, ts: ts})
	}
	s.scheduleResolve(ts)
	s.updateOffer(ts)
	return nil
}

// unwindSpeculation removes the effects of ERfair early instantiation so
// the reweighting rules see the state a plain Pfair scheduler would have.
// An unscheduled speculative subtask (nominal release still in the future)
// is rolled back entirely; one that already executed keeps its quantum but
// is retired from the ideal trackers. Rolling back can expose a second
// speculative subtask underneath, so the unwind iterates.
func (s *Scheduler) unwindSpeculation(ts *taskState) {
	changed := false
	for {
		sub := ts.lastReleased
		if sub == nil || sub.release <= s.now || sub.halted {
			break
		}
		changed = true
		dropLive(ts, sub)
		if !sub.scheduled {
			// Full rollback: the subtask never ran and has accrued nothing.
			ts.lastReleased = sub.prev
			ts.epochN = sub.n - 1
			ts.absN = sub.abs - 1
			ts.nextRel = pendingRelease{at: sub.release, noEarly: true}
			s.pushEvent(evKindRelease, tevent{at: sub.release, ts: ts})
			if n := len(ts.history); n > 0 && ts.history[n-1] == sub {
				ts.history = ts.history[:n-1]
			}
			continue
		}
		// The quantum already executed on spare capacity; retire the
		// subtask from the ideal side so the abandoned window accrues
		// nothing.
		sub.swDone = true
		sub.swDoneTime = s.now
		sub.lastSlotAlloc = frac.Zero
		break
	}
	if changed {
		s.updateOffer(ts)
	}
}

// dropLive removes sub from the task's I_SW live set.
func dropLive(ts *taskState, sub *subtask) {
	live := ts.live[:0]
	for _, x := range ts.live {
		if x != sub {
			live = append(live, x)
		}
	}
	ts.live = live
}

// initiateOI applies rules O and I at time s.now.
func (s *Scheduler) initiateOI(ts *taskState, v frac.Rat) {
	t := s.now
	tj := ts.lastReleased
	// No subtask released at or before t_c: enact immediately.
	if tj == nil || tj.release > t {
		ts.enact = pendingEnact{pending: true, target: v, at: t, releaseWithEnact: true}
		ts.nextRel = pendingRelease{at: noTime}
		return
	}
	// Last-released subtask's deadline has passed: enact at
	// max(t_c, d(T_j) + b(T_j)).
	if tj.deadline <= t {
		ts.enact = pendingEnact{
			pending: true, target: v, at: maxTime(t, tj.deadline+tj.bbit), releaseWithEnact: true,
		}
		ts.nextRel = pendingRelease{at: noTime}
		return
	}
	// r(T_j) <= t_c < d(T_j): ideal- or omission-changeable.
	if tj.scheduled || (tj.halted && tj.haltTime <= t) {
		// Ideal-changeable (T_j complete in S before t_c). A halted T_j can
		// only arise here through event skipping; it behaves like the
		// omission branch below because the halt already happened.
		if tj.halted {
			s.enactAfterHalt(ts, tj, v)
			return
		}
		if ts.swt.Less(v) {
			// Rule I(i): increase — enact immediately; the next subtask is
			// released at D(I_SW, T_j) + b(T_j).
			ts.enact = pendingEnact{pending: true, target: v, at: t, releaseWithEnact: false}
			ts.nextRel = pendingRelease{
				at: noTime, epochStart: true, waitD: tj, addB: tj.bbit, clamp: t,
			}
			s.resolveWaiters(ts)
			return
		}
		// Rule I(ii): decrease (or same weight re-request after a skip) —
		// enact at D(I_SW, T_j) + b(T_j) and release then.
		ts.enact = pendingEnact{
			pending: true, target: v, at: noTime, waitD: tj, addB: tj.bbit, clamp: t,
			releaseWithEnact: true,
		}
		ts.nextRel = pendingRelease{at: noTime}
		s.resolveWaiters(ts)
		return
	}
	// Omission-changeable: halt T_j now.
	s.halt(tj)
	s.enactAfterHalt(ts, tj, v)
}

// enactAfterHalt schedules the rule-O enactment after T_j has been halted:
// immediately if T_j is the task's very first subtask, otherwise at
// max(t_c, D(I_SW, T_{j-1}) + b(T_{j-1})).
func (s *Scheduler) enactAfterHalt(ts *taskState, tj *subtask, v frac.Rat) {
	t := s.now
	if tj.abs == 1 || tj.prev == nil {
		ts.enact = pendingEnact{pending: true, target: v, at: t, releaseWithEnact: true}
		ts.nextRel = pendingRelease{at: noTime}
		return
	}
	prev := tj.prev
	ts.enact = pendingEnact{
		pending: true, target: v, at: noTime, waitD: prev, addB: prev.bbit, clamp: t,
		releaseWithEnact: true,
	}
	ts.nextRel = pendingRelease{at: noTime}
	s.resolveWaiters(ts)
}

// initiateLJ applies the leave/join baseline: stop releasing subtasks, then
// rejoin with the new weight at max(t_c, d(T_j) + b(T_j)) where T_j is the
// last released subtask (which, under PD², is the last-scheduled subtask of
// rule L once it executes).
func (s *Scheduler) initiateLJ(ts *taskState, v frac.Rat) {
	t := s.now
	at := t
	if tj := ts.lastReleased; tj != nil && !tj.halted {
		at = maxTime(t, tj.deadline+tj.bbit)
	}
	ts.enact = pendingEnact{pending: true, target: v, at: at, releaseWithEnact: true, viaLJ: true}
	ts.nextRel = pendingRelease{at: noTime}
	ts.ljLeaving = true
}

// halt marks T_j halted at the current time: it will never be scheduled,
// I_SW stops allocating to it, and I_CSW retroactively removes its partial
// allocation (the clairvoyant schedule never allocated to it at all).
func (s *Scheduler) halt(sub *subtask) {
	sub.halted = true
	sub.haltTime = s.now
	sub.swDone = true
	sub.swDoneTime = s.now
	sub.task.cumCSW = sub.task.cumCSW.Sub(sub.swCum)
	dropLive(sub.task, sub)
	s.updateOffer(sub.task)
}

// Join adds a new task at the current time. The join condition J (total
// weight at most M after joining) is enforced: a join it refuses is an
// error. Join does not look at the joins Apply left waiting.
func (s *Scheduler) Join(spec model.Spec) error { return s.join(spec, false) }

// join adds a new task. With wait, a join that condition J refuses, or
// that an earlier join is still waiting ahead of, waits in joinQ
// instead of failing: the task is known by name, holds no weight and
// releases nothing until Step lets it in.
func (s *Scheduler) join(spec model.Spec, wait bool) error {
	s.digestOK = false
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := checkAdmissibleWeight(spec.Weight, s.cfg.AllowHeavy); err != nil {
		return fmt.Errorf("core: join %s: %w", spec.Name, err)
	}
	if _, dup := s.byName[spec.Name]; dup {
		return fmt.Errorf("core: join: duplicate task name %q", spec.Name)
	}
	fits := s.fits(spec.Weight)
	if !fits && !wait {
		return fmt.Errorf("core: join %s would raise total weight to %s > M=%d (condition J)",
			spec.Name, s.totalSwt.Add(spec.Weight), s.cfg.M)
	}
	ts := &taskState{
		id:          len(s.tasks),
		name:        spec.Name,
		group:       spec.Group,
		wt:          spec.Weight,
		swt:         spec.Weight,
		lastCPU:     -1,
		lastRunSlot: noTime,
		readyIdx:    -1,
		calIdx:      noCalIdx,
	}
	s.tasks = append(s.tasks, ts)
	s.byName[ts.name] = ts
	if !fits || (wait && len(s.joinQ) > 0) {
		s.joinQ = append(s.joinQ, ts)
		return nil
	}
	s.joinNow(ts)
	return nil
}

// fits reports whether condition J admits weight w now: the total
// scheduling weight plus w stays within M.
func (s *Scheduler) fits(w frac.Rat) bool {
	return !frac.FromInt(int64(s.cfg.M)).Less(s.totalSwt.Add(w))
}

// Joined reports whether the named task has entered the system: false
// for an unknown task and for a join still waiting for condition J.
func (s *Scheduler) Joined(name string) bool {
	ts, ok := s.byName[name]
	return ok && ts.joined
}

// JoinQueue returns the number of joins waiting for condition J.
func (s *Scheduler) JoinQueue() int { return len(s.joinQ) }

// DelayNext postpones the task's next (normal, Eqn (4)) subtask release by
// sep slots — an intra-sporadic separation. While the task is inactive in
// the resulting gap (beyond the current subtask's deadline), I_PS allocates
// nothing to it, matching the IS-model semantics of Sec. 4.1. Delaying is
// not allowed while a reweighting event is in flight.
func (s *Scheduler) DelayNext(name string, sep int64) error {
	s.digestOK = false
	ts, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	if !ts.joined || ts.left {
		return fmt.Errorf("%w: %s", ErrNotActive, name)
	}
	if sep < 0 {
		return fmt.Errorf("core: negative IS separation %d", sep)
	}
	if sep == 0 {
		return nil
	}
	if ts.enact.pending || ts.nextRel.waitD != nil || ts.ljLeaving {
		return fmt.Errorf("core: cannot delay %s while a reweighting event is in flight", name)
	}
	s.syncTask(ts, s.now) // materialize before unwinding/mutating the pause window
	if sub := ts.lastReleased; sub != nil && sub.release > s.now {
		if sub.scheduled {
			return fmt.Errorf("core: cannot delay %s: its next subtask already executed early", name)
		}
		s.unwindSpeculation(ts)
	}
	if ts.nextRel.at == noTime || ts.nextRel.at < s.now {
		return fmt.Errorf("core: %s has no pending release to delay", name)
	}
	ts.nextRel.at += sep
	ts.nextRel.noEarly = true
	s.pushEvent(evKindRelease, tevent{at: ts.nextRel.at, ts: ts})
	// The task is inactive — and unpaid by I_PS — from its current
	// subtask's deadline until the delayed release.
	pauseFrom := s.now
	if ts.lastReleased != nil {
		pauseFrom = ts.lastReleased.deadline
	}
	if ts.psPauseUntil <= pauseFrom {
		ts.psPauseFrom = pauseFrom
	}
	if ts.nextRel.at > ts.psPauseUntil {
		ts.psPauseUntil = ts.nextRel.at
	}
	return nil
}

// MarkAbsent declares that the task's subtask with the given absolute index
// (which must not have been released yet) will be *absent* in the AGIS
// sense: it keeps its window but is never scheduled and receives no ideal
// allocation, being complete at its release in every schedule. Removing a
// subtask this way is the displacement operation of the paper's appendix.
func (s *Scheduler) MarkAbsent(name string, absIndex int64) error {
	s.digestOK = false
	ts, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	if absIndex <= ts.absN {
		return fmt.Errorf("core: subtask %s_%d already released", name, absIndex)
	}
	if ts.pendingAbsent == nil {
		ts.pendingAbsent = make(map[int64]bool)
	}
	ts.pendingAbsent[absIndex] = true
	return nil
}

// Leave removes a task at the current time. The leave condition L requires
// now >= d(T_i) + b(T_i) for the task's last *scheduled* subtask T_i;
// calling Leave earlier is an error. A released but unscheduled successor is
// withdrawn (it becomes absent, exactly like a halted subtask).
func (s *Scheduler) Leave(name string) error {
	s.digestOK = false
	ts, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	if !ts.joined || ts.left {
		return fmt.Errorf("%w: %s", ErrNotActive, name)
	}
	if need := s.ruleL(ts); s.now < need {
		return fmt.Errorf("%w: %s at %d (needs t >= %d)", ErrLeaveTooEarly, name, s.now, need)
	}
	s.leaveNow(ts)
	return nil
}

// ruleL returns the earliest time rule L lets ts leave: d+b of its last
// scheduled subtask, or 0 before it has run.
func (s *Scheduler) ruleL(ts *taskState) model.Time {
	for sub := ts.lastReleased; sub != nil; sub = sub.prev {
		if sub.scheduled {
			return sub.deadline + sub.bbit
		}
	}
	return 0
}

// leaveNow takes ts out of the system at the current time, which rule L
// must permit. Its released, unscheduled subtasks are withdrawn (halted).
func (s *Scheduler) leaveNow(ts *taskState) {
	// Freeze the lazy accrual at the leave time; a left task is skipped by
	// all future syncs, exactly as the per-slot loop skipped left tasks.
	s.syncTask(ts, s.now)
	for sub := ts.lastReleased; sub != nil && !sub.scheduled; sub = sub.prev {
		if !sub.halted {
			s.halt(sub)
		}
	}
	ts.left = true
	last := s.live[len(s.live)-1]
	s.live[ts.liveIdx], last.liveIdx = last, ts.liveIdx
	s.live[len(s.live)-1] = nil
	s.live = s.live[:len(s.live)-1]
	ts.enact = pendingEnact{}
	ts.nextRel = pendingRelease{at: noTime}
	s.totalSwt = s.totalSwt.Sub(ts.swt)
	s.updateOffer(ts)
}

// Depart removes a task as soon as rule L permits. If it permits now,
// Depart is Leave. Otherwise the task stops releasing subtasks at once:
// a pending enactment is cancelled and ERfair speculation unwound, as
// Initiate does, and Step removes the task at max(now, d(T_j)+b(T_j))
// of its last released, unhalted subtask T_j — the time initiateLJ
// rejoins at. PD² completes T_j by its deadline, so rule L holds then.
// Until that slot the task is active and Leaving (TaskMetrics), and
// Initiate and Depart refuse it.
func (s *Scheduler) Depart(name string) error {
	s.digestOK = false
	ts, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	if !ts.joined || ts.left {
		return fmt.Errorf("%w: %s", ErrNotActive, name)
	}
	if ts.departing() {
		return fmt.Errorf("%w: %s is already leaving", ErrNotActive, name)
	}
	if s.ruleL(ts) <= s.now {
		s.leaveNow(ts)
		return nil
	}
	// Sync-before-mutation: materialize the lazy accrual state at t_c so
	// the unwind below observes exactly what the per-slot engine would.
	s.syncTask(ts, s.now)
	ts.enact = pendingEnact{}
	s.unwindSpeculation(ts)
	at := s.now
	tj := ts.lastReleased
	for tj != nil && tj.halted {
		tj = tj.prev
	}
	if tj != nil {
		at = maxTime(at, tj.deadline+tj.bbit)
	}
	ts.enact = pendingEnact{pending: true, at: at, depart: true}
	ts.nextRel = pendingRelease{at: noTime}
	s.pushEvent(evKindEnact, tevent{at: at, ts: ts})
	return nil
}

// Step simulates one slot: enactments and releases due now, PD² scheduling,
// then ideal-schedule accrual; then, at the new clock, it lets in the
// joins waiting for condition J. Initiations and joins/leaves for this
// slot must be issued (via Initiate/Join/Leave/Depart/Apply) before
// calling Step.
//
// Each phase pops its calendar and re-validates every event against the
// predicate the original per-slot scan evaluated (the scan itself is
// preserved in internal/core/reference), so stale or duplicate events are
// dropped and the phases process exactly the tasks the scan would have —
// in the same (task-id) order.
//
//lint:noalloc the slot loop; steady state must not allocate (TestStepSteadyStateAllocs)
func (s *Scheduler) Step() {
	s.digestOK = false
	t := s.now

	// Scheduled joins from the initial system.
	if due := s.collectDue(evKindJoin, t, func(ts *taskState) bool {
		return !ts.joined && !ts.left && ts.join == t
	}); len(due) > 0 {
		for _, ts := range due {
			// Condition J: defer the join while capacity is lacking.
			if frac.FromInt(int64(s.cfg.M)).Less(s.totalSwt.Add(ts.swt)) {
				ts.join = t + 1
				s.pushEvent(evKindJoin, tevent{at: t + 1, ts: ts})
				continue
			}
			s.joinNow(ts)
		}
		s.resetDue()
	}

	// Enactments due now: non-increases first so that freed capacity can be
	// claimed by increases policed under (W) in the same slot.
	if due := s.collectDue(evKindEnact, t, func(ts *taskState) bool {
		e := &ts.enact
		return e.pending && e.waitD == nil && e.at == t && !ts.left
	}); len(due) > 0 {
		for pass := 0; pass < 2; pass++ {
			for _, ts := range due {
				e := &ts.enact
				if !e.pending || e.at != t || ts.left {
					continue
				}
				increase := ts.swt.Less(e.target)
				if (pass == 0) == increase {
					continue
				}
				if e.depart {
					// Depart's time: its last subtask has run, so rule L
					// permits the leave.
					s.leaveNow(ts)
					continue
				}
				if s.cfg.Police && increase {
					newTotal := s.totalSwt.Sub(ts.swt).Add(e.target)
					if frac.FromInt(int64(s.cfg.M)).Less(newTotal) {
						// Defer under (W): retry next slot. A rule-I(i) event's
						// separately-scheduled release is gated below on the
						// enactment having landed, so the new epoch cannot start
						// early; it still waits for D(I_SW, T_j) + b(T_j).
						e.at = t + 1
						s.pushEvent(evKindEnact, tevent{at: t + 1, ts: ts})
						continue
					}
				}
				// The scheduling weight changes now: materialize the accrual
				// of slots < t under the old weight first (slot t itself
				// accrues under the new weight, as in the per-slot loop).
				s.syncAccrual(ts, t)
				s.totalSwt = s.totalSwt.Sub(ts.swt).Add(e.target)
				ts.swt = e.target
				ts.enactments++
				ts.ljLeaving = false
				if s.cfg.RecordSubtasks {
					ts.swtHist = append(ts.swtHist, WeightChange{At: t, W: ts.swt})
				}
				if e.viaLJ {
					s.overheadDebt = s.overheadDebt.Add(s.cfg.OverheadLJ)
				} else {
					s.overheadDebt = s.overheadDebt.Add(s.cfg.OverheadOI)
				}
				if e.releaseWithEnact {
					ts.nextRel = pendingRelease{at: t, epochStart: true}
					s.pushEvent(evKindRelease, tevent{at: t, ts: ts})
				} else {
					// Rule I(i): the release was scheduled independently (at
					// D(I_SW, T_j) + b(T_j)); a policing deferral may have pushed
					// the enactment past it, and the epoch cannot start before
					// its weight change, so clamp the release to now.
					if ts.nextRel.waitD != nil {
						if ts.nextRel.clamp < t {
							ts.nextRel.clamp = t
						}
					} else if ts.nextRel.at != noTime && ts.nextRel.at < t {
						ts.nextRel.at = t
						s.pushEvent(evKindRelease, tevent{at: t, ts: ts})
					}
				}
				ts.enact = pendingEnact{}
				// The new weight changes the completion forecast any
				// remaining waiter was scheduled on.
				s.scheduleResolve(ts)
			}
		}
		s.resetDue()
	}

	// Releases due now. Under ERfair, a normal (Eqn (4)) release may be
	// instantiated early — with its nominal release time and deadline —
	// once the predecessor has completed, so it can execute ahead of its
	// window. Candidates come from the release calendar (concrete release
	// times) and the ER calendar (a predecessor completed last slot).
	s.markGen++
	for {
		e, ok := s.calendar(evKindRelease).popDue(t)
		if !ok {
			break
		}
		if ts := e.ts; ts.mark != s.markGen {
			ts.mark = s.markGen
			s.dueBuf = append(s.dueBuf, ts)
		}
	}
	for {
		e, ok := s.calendar(evKindER).popDue(t)
		if !ok {
			break
		}
		if ts := e.ts; ts.mark != s.markGen {
			ts.mark = s.markGen
			s.dueBuf = append(s.dueBuf, ts)
		}
	}
	if len(s.dueBuf) > 0 {
		sortTasksByID(s.dueBuf)
		for _, ts := range s.dueBuf {
			if !ts.joined || ts.left || ts.nextRel.waitD != nil || ts.nextRel.at == noTime {
				continue
			}
			// An epoch-start release may not fire while its weight change is
			// still pending (policing can defer the enactment past the release
			// time the D-waiter resolved to); retry next slot.
			if ts.nextRel.epochStart && ts.enact.pending {
				s.pushEvent(evKindRelease, tevent{at: t + 1, ts: ts})
				continue
			}
			switch {
			case ts.nextRel.at <= t:
				s.release(ts, maxTime(ts.nextRel.at, t))
			case s.cfg.EarlyRelease && ts.nextRel.at > t &&
				!ts.nextRel.epochStart && !ts.nextRel.noEarly &&
				!ts.enact.pending && !ts.ljLeaving &&
				ts.lastReleased != nil && ts.earliestIncomplete() == nil:
				s.release(ts, ts.nextRel.at)
			}
		}
		s.resetDue()
	}

	// Deadline-miss detection: a subtask incomplete at the start of slot
	// d(T_j) has missed. The calendar holds one event per released subtask
	// at its deadline; validation replicates the scan's one-generation
	// chain walk (a subtask trimmed out of the chain is never reported).
	for {
		e, ok := s.calendar(evKindMiss).popDue(t)
		if !ok {
			break
		}
		sub, ts := e.sub, e.ts
		if e.stamp != sub.stamp || sub.task != ts {
			continue // recycled record
		}
		if lr := ts.lastReleased; lr == nil || (sub != lr && sub != lr.prev) {
			continue // trimmed out of the one-generation chain
		}
		if sub.scheduled || sub.halted || sub.absent || sub.missed || sub.deadline > t {
			continue
		}
		s.missBuf = append(s.missBuf, e)
	}
	if len(s.missBuf) > 0 {
		sortMisses(s.missBuf)
		for _, e := range s.missBuf {
			sub, ts := e.sub, e.ts
			if sub.missed {
				continue
			}
			sub.missed = true
			ts.misses++
			s.misses = append(s.misses, MissEvent{Task: ts.name, Subtask: sub.abs, Deadline: sub.deadline})
		}
		for i := range s.missBuf {
			s.missBuf[i] = tevent{}
		}
		s.missBuf = s.missBuf[:0]
	}

	// PD² scheduling of slot t. The ready heap holds exactly the tasks the
	// original scan would have found eligible; popping it yields the
	// unique highest-priority subtasks in priority order (the PD² order
	// extended by task id is a strict total order, so the selection —
	// like topk.Partial over the scanned set — is deterministic).
	//
	// Pay down accumulated reweighting overhead by stealing processor-slots
	// (at most one per slot: the scheduling work serializes on the event
	// queue). The stolen quantum occupies the highest-numbered processor,
	// so affinity/migration accounting sees it as busy.
	if s.cpuBusy == nil {
		s.cpuBusy = make([]bool, s.cfg.M) //lint:allow hotalloc one-time scratch warmup before the first slot; steady state reuses it
	}
	for c := range s.cpuBusy {
		s.cpuBusy[c] = false
	}
	avail := s.cfg.M
	if frac.One.LessEq(s.overheadDebt) && avail > 0 {
		avail--
		s.overheadSlots++
		s.overheadDebt = s.overheadDebt.Sub(frac.One)
		s.cpuBusy[s.cfg.M-1] = true
	}
	n := s.ready.len()
	if n > avail {
		n = avail
	}
	for i := 0; i < n; i++ {
		ts := s.ready.popMin()
		s.runBuf = append(s.runBuf, ts.offer)
		s.curRan = append(s.curRan, ts)
	}
	// Processor assignment with affinity: a task keeps its previous CPU
	// when it is free, so the migration counts reflect unavoidable moves.
	for _, sub := range s.runBuf {
		ts := sub.task
		if c := ts.lastCPU; c >= 0 && c < s.cfg.M && !s.cpuBusy[c] {
			s.cpuBusy[c] = true
			sub.schedCPU = c
		} else {
			sub.schedCPU = -1
		}
	}
	next := 0
	for _, sub := range s.runBuf {
		if sub.schedCPU >= 0 {
			continue
		}
		for s.cpuBusy[next] {
			next++
		}
		sub.schedCPU = next
		s.cpuBusy[next] = true
	}
	var row []SlotEntry
	for _, sub := range s.runBuf {
		ts := sub.task
		sub.scheduled = true
		sub.schedSlot = t
		ts.scheduledQuanta++
		if ts.lastCPU >= 0 && ts.lastCPU != sub.schedCPU {
			ts.migrations++
		}
		ts.lastCPU = sub.schedCPU
		ts.lastRunSlot = t
		if s.cfg.RecordSchedule {
			//lint:allow hotalloc RecordSchedule diagnostic mode retains per-slot rows by design
			row = append(row, SlotEntry{Task: ts.name, Subtask: sub.abs, CPU: sub.schedCPU})
		}
		// The completed quantum advances the task's offer (possibly to an
		// already-released successor); under ERfair the completion also
		// makes the task a speculation candidate next slot.
		s.updateOffer(ts)
		if s.cfg.EarlyRelease {
			s.pushEvent(evKindER, tevent{at: t + 1, ts: ts})
		}
	}
	// Preemption accounting: a task that ran in slot t-1 and has eligible
	// work now but was not chosen has been preempted.
	for _, ts := range s.prevRan {
		if ts.lastRunSlot != t && ts.eligible(t, s.cfg.EarlyRelease) != nil {
			ts.preemptions++
		}
	}
	if s.cfg.RecordSchedule {
		s.schedule = append(s.schedule, row)
	}
	s.holes += int64(avail - n)
	for i := range s.runBuf {
		s.runBuf[i] = nil // release subtask pointers
	}
	s.runBuf = s.runBuf[:0]
	for i := range s.prevRan {
		s.prevRan[i] = nil
	}
	s.prevRan, s.curRan = s.curRan, s.prevRan[:0]

	// Ideal-schedule accrual for slot t is lazy (see lazy.go); only
	// forecast waiter resolutions run now, with the affected task's
	// accrual materialized through slot t so D(I_SW,·) is known.
	if due := s.collectDue(evKindResolve, t, func(ts *taskState) bool {
		return (ts.enact.pending && ts.enact.waitD != nil) || ts.nextRel.waitD != nil
	}); len(due) > 0 {
		for _, ts := range due {
			s.syncAccrual(ts, t+1)
			s.resolveWaiters(ts)
		}
		s.resetDue()
	}

	s.now = t + 1

	// Joins waiting for condition J enter in admission order while the
	// head fits: after this slot's enactments and leaves have freed
	// weight, and before the commands of slot t+1 apply.
	for len(s.joinQ) > 0 && s.fits(s.joinQ[0].swt) {
		s.joinNow(s.joinQ[0])
		s.joinQ[0] = nil
		s.joinQ = s.joinQ[1:]
	}
}

// collectDue pops every event due at or before t from the calendar of
// the given kind, keeps the tasks passing the validation predicate
// (deduplicated, in task-id order) in s.dueBuf and returns it. Callers
// must resetDue afterwards.
func (s *Scheduler) collectDue(k eventKind, t model.Time, valid func(*taskState) bool) []*taskState {
	h := s.calendar(k)
	s.markGen++
	for {
		e, ok := h.popDue(t)
		if !ok {
			break
		}
		ts := e.ts
		//lint:allow hotalloc the phase predicates are stateless closures the compiler keeps off the heap (TestStepSteadyStateAllocs)
		if ts.mark == s.markGen || !valid(ts) {
			continue
		}
		ts.mark = s.markGen
		s.dueBuf = append(s.dueBuf, ts)
	}
	sortTasksByID(s.dueBuf)
	return s.dueBuf
}

// resetDue clears the scratch buffer of the last collectDue.
func (s *Scheduler) resetDue() {
	for i := range s.dueBuf {
		s.dueBuf[i] = nil
	}
	s.dueBuf = s.dueBuf[:0]
}

// sortTasksByID sorts the (typically tiny) batch in task-id order —
// insertion sort avoids allocation in the hot path.
func sortTasksByID(ts []*taskState) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].id < ts[j-1].id; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// sortMisses orders validated miss events like the original chain scan:
// tasks in id order, and within a task the newest subtask first.
func sortMisses(ev []tevent) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && missEventLess(ev[j], ev[j-1]); j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

func missEventLess(a, b tevent) bool {
	if a.ts.id != b.ts.id {
		return a.ts.id < b.ts.id
	}
	return a.sub.abs > b.sub.abs
}

// updateOffer recomputes the subtask the task offers to the PD² queue and
// fixes its ready-heap membership. Called after any mutation that can
// change earliestIncomplete (release, scheduling, halt, unwind, leave).
func (s *Scheduler) updateOffer(ts *taskState) {
	var offer *subtask
	if ts.joined && !ts.left {
		offer = ts.earliestIncomplete()
	}
	if offer == ts.offer {
		return
	}
	ts.offer = offer
	switch {
	case offer == nil:
		if ts.readyIdx >= 0 {
			s.ready.remove(ts)
		}
	case ts.readyIdx < 0:
		s.ready.pushTask(ts)
	default:
		s.ready.fix(ts.readyIdx)
	}
}

// RunTo advances the simulation to time horizon.
func (s *Scheduler) RunTo(horizon model.Time) {
	for s.now < horizon {
		s.Step()
	}
}

// Run advances to the horizon, invoking hook (if non-nil) at the start of
// each slot so callers can issue initiations/joins/leaves for that slot.
func (s *Scheduler) Run(horizon model.Time, hook func(t model.Time, s *Scheduler)) {
	for s.now < horizon {
		if hook != nil {
			hook(s.now, s)
		}
		s.Step()
	}
}

// release instantiates the next subtask of ts at time t.
func (s *Scheduler) release(ts *taskState, t model.Time) {
	// Materialize the lazy accrual at the wall-clock slot being processed:
	// the (V) invariant check, the first-slot pairing of the new subtask
	// and the drift update all read state the per-slot loop would have
	// accrued by now. Under ERfair speculation t is the *nominal* release
	// time, which lies in the future — syncing to it would materialize
	// allocations the per-slot loop has not yet made, so sync to s.now.
	s.syncTask(ts, s.now)
	n := ts.epochN + 1
	epochStart := ts.nextRel.epochStart || ts.lastReleased == nil
	if epochStart {
		n = 1
	}
	d := model.EpochDeadline(ts.swt, t, n)
	b := model.EpochBBit(ts.swt, n)
	sub := s.newSubtask()
	sub.task = ts
	sub.n = n
	sub.abs = ts.absN + 1
	sub.epochStart = epochStart
	sub.release = t
	sub.deadline = d
	sub.bbit = b
	sub.groupDeadline = model.GroupDeadline(ts.swt, t, n)
	sub.prev = ts.lastReleased
	if ts.pendingAbsent[sub.abs] {
		delete(ts.pendingAbsent, sub.abs)
		// An absent subtask keeps its window but never runs and receives no
		// ideal allocation: complete at release, with a zero final-slot
		// allocation so its successor's first slot gets the full weight.
		sub.absent = true
		sub.swDone = true
		sub.swDoneTime = t
		sub.lastSlotAlloc = frac.Zero
	}
	if lr := ts.lastReleased; lr != nil {
		// Keep at most one generation of links. The trimmed-out record is
		// unreachable once the offer is recomputed below; retire it to the
		// pool after a one-release grace period.
		if p2 := lr.prev; p2 != nil && (p2.swDone || p2.halted) {
			if ts.retired != nil {
				s.freeSubtask(ts.retired)
			}
			ts.retired = p2
		}
		lr.prev = nil
	}
	if s.cfg.RecordSubtasks {
		ts.history = append(ts.history, sub)
	}
	if s.cfg.CheckInvariants {
		// Property (V): if the successor is released before d(T_j)-b(T_j),
		// T_j must be complete in both S and I_CSW by the release.
		if p := sub.prev; p != nil && t < p.deadline-p.bbit {
			if !p.swDone || p.swDoneTime > t {
				s.violations = append(s.violations,
					//lint:allow hotalloc CheckInvariants diagnostic mode formats violations; off by default in production
					fmt.Sprintf("t=%d: (V) violated for %s: early release but D(I_SW)=%d", t, p, p.swDoneTime))
			}
			if !p.completeInS(t + 1) {
				s.violations = append(s.violations,
					//lint:allow hotalloc CheckInvariants diagnostic mode formats violations; off by default in production
					fmt.Sprintf("t=%d: (V) violated for %s: early release but incomplete in S", t, p))
			}
		}
	}
	ts.lastReleased = sub
	ts.epochN = n
	ts.absN++
	ts.live = append(ts.live, sub)
	// Normal successor release per Eqn (4); reweighting events override it.
	ts.nextRel = pendingRelease{at: model.NextRelease(d, b, 0)}
	s.pushEvent(evKindRelease, tevent{at: ts.nextRel.at, ts: ts})
	if !sub.absent {
		s.pushEvent(evKindMiss, tevent{at: sub.deadline, ts: ts, sub: sub, stamp: sub.stamp})
	} else if s.cfg.EarlyRelease {
		// An absent subtask is complete at release, so the task becomes an
		// ERfair speculation candidate next slot. Next *wall-clock* slot:
		// for a speculative release t is the nominal (future) release time,
		// but the scan would reconsider the task at s.now+1 already.
		s.pushEvent(evKindER, tevent{at: s.now + 1, ts: ts})
	}
	s.updateOffer(ts)
	if epochStart {
		s.recordDrift(ts, t)
	}
}

// newSubtask takes a record from the free list (or allocates one),
// preserving its reuse stamp.
//
//lint:allocok pool growth: allocates only on a free-list miss, amortized to zero in steady state
func (s *Scheduler) newSubtask() *subtask {
	if n := len(s.subPool); n > 0 {
		sub := s.subPool[n-1]
		s.subPool[n-1] = nil
		s.subPool = s.subPool[:n-1]
		*sub = subtask{stamp: sub.stamp}
		return sub
	}
	return &subtask{}
}

// freeSubtask retires an unreachable record to the pool. Bumping the
// stamp invalidates any calendar event still referencing it. Records are
// kept forever under RecordSubtasks (the history retains them).
func (s *Scheduler) freeSubtask(sub *subtask) {
	if s.cfg.RecordSubtasks {
		return
	}
	sub.stamp++
	sub.task = nil
	sub.prev = nil
	s.subPool = append(s.subPool, sub)
}

// recordDrift updates drift(T, ·) at the release time of an epoch-starting
// subtask: drift = A(I_PS, T, 0, u) - A(I_CSW, T, 0, u) (Eqn (5)).
func (s *Scheduler) recordDrift(ts *taskState, u model.Time) {
	ts.drift = ts.cumPS.Sub(ts.cumCSW)
	if d := ts.drift.Abs(); ts.maxAbsDrift.Less(d) {
		ts.maxAbsDrift = d
		if s.maxAbsDrift.Less(d) {
			s.maxAbsDrift = d
		}
	}
	if s.cfg.RecordDriftEvents {
		s.drifts[ts.name] = append(s.drifts[ts.name], DriftEvent{At: u, Value: ts.drift})
	}
}

// resolveWaiters converts D(I_SW, ·)-dependent enactment and release times
// into concrete times once the completion they wait on is known (per-slot
// accrual is lazy, so callers materialize the awaited subtask's state
// first), and registers the now-concrete times on the calendars.
func (s *Scheduler) resolveWaiters(ts *taskState) {
	if e := &ts.enact; e.pending && e.waitD != nil && e.waitD.swDone {
		e.at = maxTime(e.clamp, e.waitD.swDoneTime+e.addB)
		e.waitD = nil
		s.pushEvent(evKindEnact, tevent{at: e.at, ts: ts})
	}
	if r := &ts.nextRel; r.waitD != nil && r.waitD.swDone {
		r.at = maxTime(r.clamp, r.waitD.swDoneTime+r.addB)
		r.waitD = nil
		s.pushEvent(evKindRelease, tevent{at: r.at, ts: ts})
	}
}

// higherPriority implements the full PD² priority order: earlier deadline
// first, then b-bit 1 over 0, then (for heavy tasks) the later group
// deadline, then the configured tie-break, then task id.
func (s *Scheduler) higherPriority(a, b *subtask) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.bbit != b.bbit {
		return a.bbit > b.bbit
	}
	if a.groupDeadline != b.groupDeadline {
		return a.groupDeadline > b.groupDeadline
	}
	if s.cfg.TieBreak != nil {
		//lint:allow hotalloc TieBreak is a config plugin point; implementations must be allocation-free (documented on Config)
		if c := s.cfg.TieBreak(a.task.name, a.task.group, b.task.name, b.task.group); c != 0 {
			return c < 0
		}
	}
	return a.task.id < b.task.id
}

func maxTime(a, b model.Time) model.Time {
	if a > b {
		return a
	}
	return b
}

// checkAdmissibleWeight validates a task weight against the scheduler's
// configuration: light only by default, up to 1 with AllowHeavy.
func checkAdmissibleWeight(w frac.Rat, allowHeavy bool) error {
	if allowHeavy {
		return model.CheckWeight(w)
	}
	return model.CheckLightWeight(w)
}
