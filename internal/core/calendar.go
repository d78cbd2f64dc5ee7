package core

import (
	"fmt"

	"repro/internal/model"
)

// This file implements the time-indexed calendar of the event-driven PD²
// engine. Instead of rescanning every task every slot (the original
// brute-force loop, preserved verbatim in internal/core/reference), the
// scheduler keeps one min-heap per event kind — pending joins, enactment
// times, release times, ERfair speculation candidates, subtask deadlines
// (miss detection) and D(I_SW,·)-waiter resolutions — keyed by
// (time, push sequence). Each Step pops only the events due now.
//
// Every pop re-validates the event against the task's current state
// using exactly the predicate the original per-slot scan evaluated, so a
// stale event is simply dropped and the engine's observable behavior
// stays byte-for-byte identical to the scan. Events that reference a
// pooled subtask additionally carry the subtask's reuse stamp (see
// subtask.stamp).
//
// Two kinds are indexed, the other four lazy:
//
//   - Enact and resolve are indexed: a task holds at most one entry in
//     each, and a push re-keys that entry in place (eventHeap.set). This
//     is exact. An enact entry passes validation only at ts.enact.at,
//     the time of the latest push; a resolve entry only matters at the
//     current waiter's forecast, which is exact (forecastDone), so an
//     earlier entry would pop to a no-op and a later one after the
//     waiter resolved. The index bounds the heaps under reweight
//     storms: each Initiate that skips an unenacted change (Sec. 3.2)
//     would otherwise leave a stale entry behind.
//   - Join, release, ER and miss stay lazy: a push appends, and stale or
//     duplicate entries wait to be popped and dropped. They hold
//     O(tasks) entries on every measured stream.

// eventKind enumerates the calendar heaps of the event-driven engine.
// Each kind has its own heap on the Scheduler and its own pop-time
// re-validation predicate; dispatching from kind to heap goes through
// Scheduler.calendar, whose switch pd2lint's eventexhaust check keeps
// exhaustive — adding a kind here fails lint until every kind-dispatch
// switch handles it.
//
//lint:exhaustive ignore=numEventKinds -- sentinel counts the kinds, it is not one
type eventKind uint8

const (
	evKindJoin    eventKind = iota // deferred joins of the initial system
	evKindEnact                    // concrete enactment times
	evKindRelease                  // concrete release times
	evKindER                       // ERfair speculation candidates
	evKindMiss                     // subtask deadlines (miss detection)
	evKindResolve                  // D(I_SW,·)-waiter resolution forecasts
	numEventKinds                  // sentinel: number of kinds, not a kind
)

// String names the kind for diagnostics and tests. All kinds are
// covered; the fallthrough renders out-of-range values instead of
// hiding them behind a default case.
func (k eventKind) String() string {
	switch k {
	case evKindJoin:
		return "join"
	case evKindEnact:
		return "enact"
	case evKindRelease:
		return "release"
	case evKindER:
		return "erfair"
	case evKindMiss:
		return "miss"
	case evKindResolve:
		return "resolve"
	}
	return fmt.Sprintf("eventKind(%d)", uint8(k))
}

// tevent is one calendar entry. ts is the task it concerns; sub/stamp are
// set only for deadline-miss events.
type tevent struct {
	at    model.Time
	seq   uint64
	ts    *taskState
	sub   *subtask
	stamp uint64
}

// eventHeap is a binary min-heap of tevents ordered by (at, seq). seq is a
// global push counter, making the pop order deterministic.
type eventHeap struct {
	ev []tevent
	// indexed makes the heap hold at most one entry per task, at
	// ev[ts.calIdx[slot]] (-1: none); set re-keys it in place.
	indexed bool
	slot    int
}

// Slots of taskState.calIdx, one per indexed calendar.
const (
	calSlotEnact = iota
	calSlotResolve
	numCalSlots
)

// noCalIdx is a new task's calIdx: no entry in any indexed calendar.
var noCalIdx = [numCalSlots]int{-1, -1}

// push adds e to a lazy heap, or re-keys e.ts's entry in an indexed one.
func (h *eventHeap) push(e tevent) {
	if h.indexed {
		h.set(e)
		return
	}
	h.ev = append(h.ev, e)
	h.siftUp(len(h.ev) - 1)
}

// set gives e.ts's one entry the key (e.at, e.seq), adding the entry if
// the task has none, and restores the heap order.
func (h *eventHeap) set(e tevent) {
	i := e.ts.calIdx[h.slot]
	if i < 0 {
		i = len(h.ev)
		e.ts.calIdx[h.slot] = i
		h.ev = append(h.ev, e)
	} else {
		h.ev[i].at = e.at
		h.ev[i].seq = e.seq
	}
	if !h.siftUp(i) {
		h.siftDown(i)
	}
}

// swap exchanges two entries, keeping an indexed heap's index current.
func (h *eventHeap) swap(i, j int) {
	h.ev[i], h.ev[j] = h.ev[j], h.ev[i]
	if h.indexed {
		h.ev[i].ts.calIdx[h.slot] = i
		h.ev[j].ts.calIdx[h.slot] = j
	}
}

func (h *eventHeap) siftUp(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !h.ev[i].before(h.ev[p]) {
			break
		}
		h.swap(i, p)
		i = p
		moved = true
	}
	return moved
}

func (e tevent) before(f tevent) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// popDue removes and returns the earliest event if it is due at or before
// t. The boolean is false when no event is due.
func (h *eventHeap) popDue(t model.Time) (tevent, bool) {
	if len(h.ev) == 0 || h.ev[0].at > t {
		return tevent{}, false
	}
	e := h.ev[0]
	last := len(h.ev) - 1
	h.swap(0, last)
	h.ev[last] = tevent{} // release pointers
	h.ev = h.ev[:last]
	if h.indexed {
		e.ts.calIdx[h.slot] = -1
	}
	h.siftDown(0)
	return e, true
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.ev[r].before(h.ev[l]) {
			m = r
		}
		if !h.ev[m].before(h.ev[i]) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// readyHeap is an indexed min-heap of tasks ordered by the PD² priority of
// their offered subtask (ts.offer). It holds exactly the tasks whose offer
// would appear in the original engine's per-slot eligibility scan: every
// joined, non-left task with an earliest incomplete subtask (released
// subtasks never have a future release time outside ERfair speculation,
// and under ERfair an instantiated subtask is eligible regardless of its
// nominal release; so membership never depends on the current slot).
//
// The PD² order extended by task id is a strict total order, so the heap's
// pop sequence — and with it the schedule — is deterministic regardless of
// operation history.
type readyHeap struct {
	ts []*taskState
	// sched owns the PD² priority order; holding the scheduler (rather
	// than a comparison closure) keeps the sift paths' calls static, so
	// hotalloc can verify the slot loop end to end.
	sched *Scheduler
}

func (h *readyHeap) less(a, b *taskState) bool {
	return h.sched.higherPriority(a.offer, b.offer)
}

func (h *readyHeap) len() int { return len(h.ts) }

func (h *readyHeap) pushTask(ts *taskState) {
	ts.readyIdx = len(h.ts)
	h.ts = append(h.ts, ts)
	h.siftUp(ts.readyIdx)
}

// popMin removes and returns the highest-priority task.
func (h *readyHeap) popMin() *taskState {
	top := h.ts[0]
	last := len(h.ts) - 1
	h.ts[0] = h.ts[last]
	h.ts[0].readyIdx = 0
	h.ts[last] = nil
	h.ts = h.ts[:last]
	if last > 0 {
		h.siftDown(0)
	}
	top.readyIdx = -1
	return top
}

// remove deletes the task at index i.
func (h *readyHeap) remove(ts *taskState) {
	i := ts.readyIdx
	last := len(h.ts) - 1
	if i != last {
		h.ts[i] = h.ts[last]
		h.ts[i].readyIdx = i
	}
	h.ts[last] = nil
	h.ts = h.ts[:last]
	if i != last {
		h.fix(i)
	}
	ts.readyIdx = -1
}

// fix restores the heap property at index i after its key changed.
func (h *readyHeap) fix(i int) {
	if !h.siftUp(i) {
		h.siftDown(i)
	}
}

func (h *readyHeap) siftUp(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.ts[i], h.ts[p]) {
			break
		}
		h.ts[i], h.ts[p] = h.ts[p], h.ts[i]
		h.ts[i].readyIdx = i
		h.ts[p].readyIdx = p
		i = p
		moved = true
	}
	return moved
}

func (h *readyHeap) siftDown(i int) {
	n := len(h.ts)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(h.ts[r], h.ts[l]) {
			m = r
		}
		if !h.less(h.ts[m], h.ts[i]) {
			return
		}
		h.ts[i], h.ts[m] = h.ts[m], h.ts[i]
		h.ts[i].readyIdx = i
		h.ts[m].readyIdx = m
		i = m
	}
}
