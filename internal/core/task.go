package core

import (
	"fmt"

	"repro/internal/frac"
	"repro/internal/model"
)

// noTime marks an unscheduled Time field.
const noTime model.Time = -1

// subtask is one released quantum of work. Its deadline and b-bit are fixed
// at release (they determine PD² priority and never change, per Sec. 3.2);
// its I_SW bookkeeping evolves as slots pass.
type subtask struct {
	task *taskState

	n          int64 // index within the current epoch (1-based); n = j - z
	abs        int64 // absolute index j across the task's lifetime (1-based)
	epochStart bool  // Id(T_j) == j: first subtask released after an enactment

	release  model.Time
	deadline model.Time
	bbit     int64
	// groupDeadline is the second PD² tie-break, nonzero only for heavy
	// tasks (weight > 1/2); among subtasks tied on deadline and b-bit, a
	// later group deadline wins.
	groupDeadline model.Time

	// Actual-schedule (S) state.
	scheduled bool
	schedSlot model.Time
	schedCPU  int
	missed    bool

	// absent marks an AGIS absent subtask: it has a window but is never
	// scheduled and receives no ideal allocation; it is complete at its
	// release in every schedule.
	absent bool

	// Halting (rule O).
	halted   bool
	haltTime model.Time

	// I_SW bookkeeping.
	swCum         frac.Rat   // A(I_SW, T_j, 0, now)
	swDone        bool       // completed in I_SW (allocation reached 1, or halted)
	swDoneTime    model.Time // D(I_SW, T_j)
	lastSlotAlloc frac.Rat   // A(I_SW, T_j, D-1): pairs with the successor's first slot

	// prev links to the immediately preceding released subtask (possibly of
	// an earlier epoch, possibly halted). Links older than one generation
	// are dropped to keep memory bounded.
	prev *subtask

	// stamp is a reuse generation counter for the scheduler's subtask pool:
	// calendar events that reference a subtask capture the stamp at push
	// time and are invalidated when the record is recycled.
	stamp uint64
}

// window returns the PD² window of the subtask.
func (s *subtask) window() model.Window {
	return model.Window{Release: s.release, Deadline: s.deadline}
}

// completeInS reports whether the subtask is complete in the actual schedule
// at the *start* of slot t (Def. 2: scheduled in an earlier slot, or halted
// by t; an absent subtask is complete at its release).
func (s *subtask) completeInS(t model.Time) bool {
	if s.scheduled && s.schedSlot < t {
		return true
	}
	if s.absent && s.release <= t {
		return true
	}
	return s.halted && s.haltTime <= t
}

func (s *subtask) String() string {
	return fmt.Sprintf("%s_%d%v", s.task.name, s.abs, s.window())
}

// pendingEnact is a reweighting enactment that has been determined but not
// yet applied (rules O and I can defer enactment). A task holds it by
// value; the zero value, with pending false, is no enactment.
type pendingEnact struct {
	pending bool
	target  frac.Rat
	at      model.Time // enactment time, or noTime while waiting on waitD
	// waitD, when non-nil, means the enactment time is
	// max(clamp, D(I_SW, waitD) + addB) and D is not yet known.
	waitD *subtask
	addB  int64
	clamp model.Time
	// releaseWithEnact: release the new epoch's first subtask at the
	// enactment time (rules O, I-decrease, LJ). Rule I-increase enacts
	// immediately and schedules the release separately.
	releaseWithEnact bool
	// viaLJ marks a leave/join enactment for overhead accounting.
	viaLJ bool
	// depart marks a Depart: the task leaves at the enactment time, and
	// target is zero so the leave runs in Step's non-increase pass.
	depart bool
}

// pendingRelease describes the next subtask release of a task.
type pendingRelease struct {
	at         model.Time // release time, or noTime while waiting on waitD
	epochStart bool
	// waitD, when non-nil, means the release time is
	// max(clamp, D(I_SW, waitD) + addB) (rule I-increase).
	waitD *subtask
	addB  int64
	clamp model.Time
	// noEarly forbids ERfair early instantiation (set for IS separations:
	// delayed work genuinely does not exist yet).
	noEarly bool
}

// taskState is the complete runtime state of one task.
type taskState struct {
	id    int
	name  string
	group string

	joined  bool // has entered the system
	left    bool // has permanently left
	join    model.Time
	liveIdx int // position in Scheduler.live while joined and not left

	wt  frac.Rat // actual weight wt(T, t): changes at initiation
	swt frac.Rat // scheduling weight swt(T, t): changes at enactment

	// Subtask chain.
	lastReleased *subtask // most recently released subtask (may be complete)
	epochN       int64    // epoch-relative index of lastReleased
	absN         int64    // absolute index of lastReleased
	nextRel      pendingRelease
	enact        pendingEnact

	// Under PolicyLJ a task that has initiated a change stops releasing
	// subtasks until it "rejoins"; ljTarget holds the weight to rejoin with.
	ljLeaving bool

	// IS-separation bookkeeping: while a user-requested release delay keeps
	// the task inactive, I_PS allocates nothing (Sec. 4.1's early-release
	// assumption, removed).
	psPauseFrom  model.Time
	psPauseUntil model.Time

	// AGIS absent subtasks: absolute indices of future subtasks to release
	// as absent.
	pendingAbsent map[int64]bool

	// Processor assignment accounting.
	lastCPU     int
	migrations  int64
	preemptions int64
	lastRunSlot model.Time

	// history retains released subtasks when Config.RecordSubtasks is set;
	// swtHist records the scheduling-weight changes.
	history []*subtask
	swtHist []WeightChange

	// I_SW live subtasks (at most two can receive allocations in one slot).
	live []*subtask

	// Accounting, all cumulative over [0, now).
	scheduledQuanta int64    // A(S, T, 0, now)
	cumSW           frac.Rat // A(I_SW, T, 0, now)
	cumCSW          frac.Rat // A(I_CSW, T, 0, now)
	cumPS           frac.Rat // A(I_PS, T, 0, now)

	drift       frac.Rat // drift(T, now) per Eqn (5)
	maxAbsDrift frac.Rat

	initiations int64 // weight-change requests seen
	enactments  int64 // weight changes enacted
	misses      int64 // deadline misses (0 under PD²-OI/LJ by Theorem 2)

	// Event-driven engine state.
	//
	// offer is the subtask the task currently offers to the PD² ready queue
	// (earliestIncomplete while joined and not left), maintained
	// incrementally at releases, scheduling marks, halts and unwinds.
	// readyIdx is the task's position in the scheduler's ready heap, or -1.
	offer    *subtask
	readyIdx int
	// calIdx is the task's position in each indexed calendar (enact,
	// resolve; see calendar.go), or -1 where it has no entry.
	calIdx [numCalSlots]int
	// accrSynced / psSynced mark the lazy accrual frontier: cumSW/cumCSW
	// and the live subtasks' swCum state are exact as of the start of slot
	// accrSynced (all slots < accrSynced accrued); likewise cumPS as of
	// psSynced. Between events both advance in closed form.
	accrSynced model.Time
	psSynced   model.Time
	// mark dedupes per-phase event candidates (compared against the
	// scheduler's markGen). retired keeps the most recently trimmed-out
	// subtask record alive for one extra release before it returns to the
	// pool, so short-lived external references (white-box tests, debug
	// inspection) see a stable record.
	mark    uint64
	retired *subtask
}

// departing reports whether a Depart awaits rule L.
func (ts *taskState) departing() bool { return ts.enact.pending && ts.enact.depart }

// earliestIncomplete returns the earliest released subtask that is neither
// scheduled, halted nor absent, or nil. Windows of consecutive subtasks can
// overlap by the b-bit, so the successor may already be released while its
// predecessor is still pending; tasks execute sequentially, so the
// predecessor always comes first.
func (ts *taskState) earliestIncomplete() *subtask {
	sub := ts.lastReleased
	if sub == nil {
		return nil
	}
	if p := sub.prev; p != nil && !p.scheduled && !p.halted && !p.absent {
		sub = p
	}
	if sub.scheduled || sub.halted || sub.absent {
		return nil
	}
	return sub
}

// eligible returns the subtask the task offers to the PD² queue at slot t,
// or nil. With early (ERfair), an instantiated subtask is eligible even
// before its nominal release.
func (ts *taskState) eligible(t model.Time, early bool) *subtask {
	if !ts.joined || ts.left {
		return nil
	}
	s := ts.earliestIncomplete()
	if s == nil || (!early && s.release > t) {
		return nil
	}
	return s
}

// TaskMetrics is a read-only snapshot of one task's accounting.
type TaskMetrics struct {
	Name        string
	Weight      frac.Rat // actual weight wt(T, now)
	SchedWeight frac.Rat // scheduling weight swt(T, now)
	Scheduled   int64    // quanta received in S
	CumSW       frac.Rat // A(I_SW, T, 0, now)
	CumCSW      frac.Rat // A(I_CSW, T, 0, now)
	CumPS       frac.Rat // A(I_PS, T, 0, now)
	Drift       frac.Rat // drift(T, now)
	MaxAbsDrift frac.Rat // max |drift| seen at any drift update
	Lag         frac.Rat // A(I_CSW,T,0,now) - A(S,T,0,now)
	Initiations int64
	Enactments  int64
	Misses      int64
	// Migrations counts scheduled quanta that ran on a different processor
	// than the task's previous quantum; Preemptions counts slots where the
	// task ran, still had eligible work the next slot, but was not chosen.
	Migrations  int64
	Preemptions int64
	// Active reports whether the task has joined and not yet left —
	// whether it still occupies scheduling weight. Leaving reports a
	// Depart that waits for rule L: the task is active until then.
	Active  bool
	Leaving bool
}

// PercentOfIdeal returns A(S)/A(I_PS) as a float (1.0 == exactly the ideal
// processor-sharing allocation). Returns 1 when the ideal allocation is zero.
func (m TaskMetrics) PercentOfIdeal() float64 {
	if m.CumPS.IsZero() {
		return 1
	}
	return float64(m.Scheduled) / m.CumPS.Float64() //lint:allow fracexact designated reporting boundary (figure output only)
}

func (ts *taskState) metrics() TaskMetrics {
	return TaskMetrics{
		Name:        ts.name,
		Weight:      ts.wt,
		SchedWeight: ts.swt,
		Scheduled:   ts.scheduledQuanta,
		CumSW:       ts.cumSW,
		CumCSW:      ts.cumCSW,
		CumPS:       ts.cumPS,
		Drift:       ts.drift,
		MaxAbsDrift: ts.maxAbsDrift,
		Lag:         ts.cumCSW.Sub(frac.FromInt(ts.scheduledQuanta)),
		Initiations: ts.initiations,
		Enactments:  ts.enactments,
		Misses:      ts.misses,
		Migrations:  ts.migrations,
		Preemptions: ts.preemptions,
		Active:      ts.joined && !ts.left,
		Leaving:     ts.departing(),
	}
}
