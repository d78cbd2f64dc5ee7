package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frac"
)

// admission holds the property-(W) books for one shard. It is owned by
// the shard goroutine — no locking — and tracks *requested* weights:
// the weight each admitted task asked for, independent of the
// scheduling weight the engine is transiently carrying while a change
// awaits enactment. Admitting against requested weights is what makes
// the 409 headroom meaningful to clients ("how much may I still ask
// for?") and guarantees every admitted command eventually applies: the
// engine's scheduling weight decays to the requested weight as changes
// enact, so a join the engine holds for condition J fits once earlier
// weight drains.
//
// The books are a view over the engine and the staged batch (see
// foldBooks): one map keyed by task name, holding the tasks that hold
// requested weight and nothing else. A departed name is burned by the
// engine, which keeps it. Lookups on the hot path go through
// string(raw) on bytes aliasing the request buffer — an rvalue map
// index the compiler evaluates without materializing the string — and
// the canonical name each entry interns at admission is what the shard
// stages into batches, so nothing downstream retains request memory.
type admission struct {
	m   frac.Rat        // capacity: the shard's processor count
	eng *core.Scheduler // asked whether a name has entered

	// tasks holds every task that holds requested weight: admitted
	// joins, staged or held or let in, until their leave reaches the
	// engine.
	tasks map[string]*taskEntry
	// total is the sum of the entries' requested weights.
	total frac.Rat
}

// taskEntry is one task's admission record.
type taskEntry struct {
	// name is the canonical interned copy of the task's wire name.
	name string
	// w is the requested weight.
	w frac.Rat
	// pending marks a join the engine has not let in, staged or held
	// for condition J; waiting clears it once the task has entered.
	// Reweights and leaves for a pending task are refused (409
	// conflict), so an admitted mutation never hits a held task.
	pending bool
	// leaving marks an admitted leave still staged. Its weight leaves
	// the books at the boundary that hands the leave to the engine,
	// which holds the task until rule L permits.
	leaving bool
}

// foldBooks builds a shard's books from its engine and its staged
// work: the tasks the engine walks as holding requested weight (held
// joins pending), then each staged command re-admitted in flush order.
// Every shard's books are built here, fresh or restored; a staged
// command the books refuse is an error, since no shard could have
// admitted it.
func foldBooks(eng *core.Scheduler, staged []core.Command) (*admission, error) {
	a := &admission{
		m:     frac.FromInt(int64(eng.M())),
		eng:   eng,
		tasks: make(map[string]*taskEntry),
	}
	eng.Requesting(func(name string, wt frac.Rat, held bool) {
		a.tasks[name] = &taskEntry{name: name, w: wt, pending: held}
		a.total = a.total.Add(wt)
	})
	for i, c := range staged {
		var aerr *admissionError
		switch c.Op {
		case core.OpJoin:
			_, aerr = a.admitJoin([]byte(c.Task), c.Weight)
		case core.OpReweight:
			_, aerr = a.admitReweight([]byte(c.Task), c.Weight)
		case core.OpLeave:
			_, aerr = a.admitLeave([]byte(c.Task))
		default:
			return nil, fmt.Errorf("serve: staged command %d is a %s", i, c.Op)
		}
		if aerr != nil {
			return nil, fmt.Errorf("serve: staged %s %q refused: %w", c.Op, c.Task, aerr)
		}
	}
	return a, nil
}

// headroom returns M minus the admitted total — how much weight a new
// request may still claim.
func (a *admission) headroom() frac.Rat { return a.m.Sub(a.total) }

// admissionError is a structured admission rejection; kind is one of
// the err* wire constants and maps to the HTTP status in resultFor.
type admissionError struct {
	kind     string
	reason   string
	headroom frac.Rat
}

func (e *admissionError) Error() string { return e.kind + ": " + e.reason }

//lint:allocok error construction on the rejection path only; the accept path returns nil
func rejectWeight(headroom frac.Rat, format string, args ...any) *admissionError {
	return &admissionError{kind: errWeight, reason: fmt.Sprintf(format, args...), headroom: headroom}
}

//lint:allocok error construction on the rejection path only; the accept path returns nil
func reject(kind, format string, args ...any) *admissionError {
	return &admissionError{kind: kind, reason: fmt.Sprintf(format, args...)}
}

// rejectOutside rejects a reweight or leave of a name outside the
// books: one the engine let in has left (left is the reason format),
// any other never joined.
//
//lint:allocok error construction on the rejection path only
func (a *admission) rejectOutside(raw []byte, left string) *admissionError {
	if a.eng.Joined(string(raw)) {
		return reject(errConflict, left, raw)
	}
	return reject(errUnknown, "task %q never joined this shard", raw)
}

// newTaskEntry interns the wire name and allocates the entry — the one
// deliberate allocation of the admission path, paid once per task
// lifetime (joins only; reweights and leaves hit existing entries).
//
//lint:allocok per-task-lifetime allocation: joins intern the name and entry once
func newTaskEntry(raw []byte, w frac.Rat) *taskEntry {
	return &taskEntry{name: string(raw), w: w, pending: true}
}

// usedName is admitJoin's reason for a name the books hold or the
// engine has let in.
const usedName = "task name %q was already used on this shard"

// admitJoin reserves name and weight for a joining task and returns the
// canonical interned name. A name outside the books is burned once the
// engine has let it in.
//
//lint:noalloc hot admission path; rejections and entry creation sit at allocok boundaries
func (a *admission) admitJoin(raw []byte, w frac.Rat) (string, *admissionError) {
	if a.tasks[string(raw)] != nil {
		return "", reject(errConflict, usedName, raw)
	}
	e := newTaskEntry(raw, w)
	if a.eng.Joined(e.name) {
		return "", reject(errConflict, usedName, raw)
	}
	if a.headroom().Less(w) {
		return "", rejectWeight(a.headroom(),
			"join %s at weight %s exceeds property (W): headroom %s of M=%s", raw, w, a.headroom(), a.m)
	}
	a.tasks[e.name] = e
	a.total = a.total.Add(w)
	return e.name, nil
}

// admitReweight reserves the weight delta for an admitted, non-leaving
// task and returns the canonical interned name.
//
//lint:noalloc hot admission path; rejections sit at allocok boundaries
func (a *admission) admitReweight(raw []byte, w frac.Rat) (string, *admissionError) {
	e := a.tasks[string(raw)]
	if e == nil {
		return "", a.rejectOutside(raw, "task %q has left this shard")
	}
	if a.waiting(e) {
		return "", reject(errConflict, "task %q has a join still pending; retry next slot", raw)
	}
	if e.leaving {
		return "", reject(errConflict, "task %q is leaving", raw)
	}
	next := a.total.Sub(e.w).Add(w)
	if a.m.Less(next) {
		return "", rejectWeight(a.headroom().Add(e.w),
			"reweight %s from %s to %s exceeds property (W): total would be %s > M=%s", e.name, e.w, w, next, a.m)
	}
	e.w = w
	a.total = next
	return e.name, nil
}

// admitLeave marks an admitted task as leaving and returns the
// canonical interned name. Its weight is freed by release at the
// boundary that hands the leave to the engine.
//
//lint:noalloc hot admission path; rejections sit at allocok boundaries
func (a *admission) admitLeave(raw []byte) (string, *admissionError) {
	e := a.tasks[string(raw)]
	if e == nil {
		return "", a.rejectOutside(raw, "task %q has already left this shard")
	}
	if a.waiting(e) {
		return "", reject(errConflict, "task %q has a join still pending; retry next slot", raw)
	}
	if e.leaving {
		return "", reject(errConflict, "task %q is already leaving", raw)
	}
	e.leaving = true
	return e.name, nil
}

// waiting reports whether the engine still holds e's join, clearing
// the pending mark once the task has entered. Only a pending entry asks
// the engine.
//
//lint:noalloc hot admission path
func (a *admission) waiting(e *taskEntry) bool {
	if e.pending && a.eng.Joined(e.name) {
		e.pending = false
	}
	return e.pending
}

// release frees the task's weight for good once the engine took its
// leave, or refused its admitted join (which admission rules out), and
// drops its entry. The engine keeps the name burned.
func (a *admission) release(name string) {
	if e := a.tasks[name]; e != nil {
		a.total = a.total.Sub(e.w)
		delete(a.tasks, name)
	}
}
