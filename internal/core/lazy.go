package core

import (
	"fmt"

	"repro/internal/frac"
	"repro/internal/model"
)

// This file implements the lazy closed-form ideal-schedule accrual of the
// event-driven engine. The original engine (internal/core/reference)
// advanced I_SW, I_CSW and I_PS with exact-rational additions for every
// task in every slot; profiling shows that arithmetic — not the per-slot
// scans — dominated the per-slot cost. Between two events that touch a
// task, its scheduling weight, actual weight and pause window are all
// constant, so the Fig. 5 per-slot recurrence collapses to a closed form:
// the first slot of a subtask allocates w minus the predecessor's final
// slot, every following slot allocates min(w, 1 - cum), i.e. k-1 full
// slots of w and a final slot of rem - (k-1)·w where k = ceil(rem / w).
//
// Exact rationals make the collapse byte-for-byte faithful: frac.Rat is
// always kept in canonical form, so summing k slots in one MulInt/Add
// yields the identical value the per-slot loop reaches.
//
// The discipline is sync-before-mutation: every operation that mutates
// state the recurrence reads (swt at enactments, wt and pause windows at
// initiations and delays, the live set and subtask chain at releases,
// halts, unwinds and leaves) first advances the frontier to the mutation
// time, so the materialized state at a sync point is exactly the original
// engine's state at that wall-clock time.

// syncAccrual advances the task's I_SW/I_CSW frontier to upTo: afterwards
// every slot < upTo has accrued exactly as in the reference per-slot loop.
func (s *Scheduler) syncAccrual(ts *taskState, upTo model.Time) {
	if !ts.joined || ts.left || ts.accrSynced >= upTo {
		return
	}
	from := ts.accrSynced
	ts.accrSynced = upTo
	if len(ts.live) == 0 {
		return
	}
	w := ts.swt
	old := ts.live
	live := ts.live[:0]
	for _, sub := range old {
		if sub.swDone || sub.halted {
			continue
		}
		start := from
		if sub.release > start {
			start = sub.release
		}
		if start >= upTo {
			live = append(live, sub)
			continue
		}
		cum := sub.swCum
		added := frac.Zero
		done := false
		var doneAt model.Time
		var lastAlloc frac.Rat
		if start == sub.release {
			// First slot (Fig. 5 lines 4-7): pair with the predecessor's
			// final-slot allocation when its window overlaps. The
			// predecessor precedes sub in the live chain, so its
			// completion within [from, upTo) is already materialized.
			var alloc frac.Rat
			if sub.epochStart || sub.prev == nil || sub.prev.halted || sub.prev.bbit == 0 {
				alloc = w
			} else {
				pair := frac.Zero
				if p := sub.prev; p.swDone && p.swDoneTime <= sub.release+1 {
					pair = p.lastSlotAlloc
				}
				alloc = w.Sub(pair)
			}
			if s.cfg.CheckInvariants && (alloc.Sign() < 0 || w.Less(alloc)) {
				s.violations = append(s.violations,
					//lint:allow hotalloc CheckInvariants diagnostic mode formats violations; off by default in production
					fmt.Sprintf("t=%d: (AF1) violated for %s: per-slot allocation %s outside [0,%s]", start, sub, alloc, w))
			}
			cum = cum.Add(alloc)
			added = alloc
			if cum.Eq(frac.One) {
				done = true
				doneAt = start + 1
				lastAlloc = alloc
			}
			start++
		}
		if !done && start < upTo {
			// Steady slots (Fig. 5 line 10): min(w, 1-cum) per slot, i.e.
			// k-1 slots of w and a final partial slot.
			rem := frac.One.Sub(cum)
			k := frac.CeilQuo(rem, w)
			if avail := int64(upTo - start); k <= avail {
				lastAlloc = rem.Sub(w.MulInt(k - 1))
				added = added.Add(rem)
				cum = frac.One
				done = true
				doneAt = start + model.Time(k)
			} else {
				inc := w.MulInt(avail)
				cum = cum.Add(inc)
				added = added.Add(inc)
			}
		}
		sub.swCum = cum
		if done {
			sub.swDone = true
			sub.swDoneTime = doneAt
			sub.lastSlotAlloc = lastAlloc
		} else {
			live = append(live, sub)
		}
		if !added.IsZero() {
			ts.cumSW = ts.cumSW.Add(added)
			ts.cumCSW = ts.cumCSW.Add(added)
		}
	}
	for i := len(live); i < len(old); i++ {
		old[i] = nil // release dropped subtask pointers
	}
	ts.live = live
}

// syncPS advances the task's I_PS frontier to upTo: cumPS accrues wt per
// slot outside the IS-separation pause window.
func (s *Scheduler) syncPS(ts *taskState, upTo model.Time) {
	if !ts.joined || ts.left || ts.psSynced >= upTo {
		return
	}
	from := ts.psSynced
	ts.psSynced = upTo
	slots := int64(upTo - from)
	if ts.psPauseUntil > 0 {
		lo := maxTime(from, ts.psPauseFrom)
		hi := upTo
		if ts.psPauseUntil < hi {
			hi = ts.psPauseUntil
		}
		if hi > lo {
			slots -= int64(hi - lo)
		}
	}
	if slots > 0 {
		ts.cumPS = ts.cumPS.Add(ts.wt.MulInt(slots))
	}
}

// syncTask advances both frontiers; used by the read-side accessors
// (Metrics, SubtaskHistory) and the mutation entry points.
func (s *Scheduler) syncTask(ts *taskState, upTo model.Time) {
	s.syncAccrual(ts, upTo)
	s.syncPS(ts, upTo)
}

// forecastDone predicts D(I_SW, sub) — the time by which sub completes in
// I_SW — assuming the task's scheduling weight stays ts.swt until then.
// Waiter-resolution events are scheduled off this forecast and recomputed
// whenever swt actually changes, so the forecast in force is always exact.
func (s *Scheduler) forecastDone(ts *taskState, sub *subtask) model.Time {
	if sub.swDone || sub.halted {
		return sub.swDoneTime
	}
	w := ts.swt
	cum := sub.swCum
	start := ts.accrSynced
	if sub.release > start {
		start = sub.release
	}
	if start == sub.release {
		var alloc frac.Rat
		if sub.epochStart || sub.prev == nil || sub.prev.halted || sub.prev.bbit == 0 {
			alloc = w
		} else {
			pair := frac.Zero
			p := sub.prev
			if p.swDone {
				if p.swDoneTime <= sub.release+1 {
					pair = p.lastSlotAlloc
				}
			} else {
				// Predecessor still accruing: forecast its completion. Its
				// own first slot predates sub's release and is materialized,
				// so only the steady phase remains.
				prem := frac.One.Sub(p.swCum)
				pk := frac.CeilQuo(prem, w)
				if ts.accrSynced+model.Time(pk) <= sub.release+1 {
					pair = prem.Sub(w.MulInt(pk - 1))
				}
			}
			alloc = w.Sub(pair)
		}
		cum = cum.Add(alloc)
		if cum.Eq(frac.One) {
			return start + 1
		}
		start++
	}
	rem := frac.One.Sub(cum)
	return start + model.Time(frac.CeilQuo(rem, w))
}

// scheduleResolve arranges for the task's pending D(I_SW,·) waiter to be
// resolved at the end of the same slot as in the reference engine (the
// slot in which the awaited subtask completes in I_SW). Rules O and I
// attach at most one waiter at a time.
func (s *Scheduler) scheduleResolve(ts *taskState) {
	var sub *subtask
	if e := &ts.enact; e.pending && e.waitD != nil {
		sub = e.waitD
	}
	if r := &ts.nextRel; r.waitD != nil {
		sub = r.waitD
	}
	if sub == nil || sub.swDone || sub.halted {
		return
	}
	at := s.forecastDone(ts, sub) - 1
	if at < s.now {
		at = s.now
	}
	s.pushEvent(evKindResolve, tevent{at: at, ts: ts})
}
