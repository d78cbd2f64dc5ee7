package serve

import (
	"fmt"
	"sort"

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
// The books are one map keyed by task name. Lookups on the hot path go
// through string(raw) on bytes aliasing the request buffer — an rvalue
// map index the compiler evaluates without materializing the string —
// and the canonical name each entry interns at admission is what the
// shard stages into batches, so nothing downstream retains request
// memory.
type admission struct {
	m   frac.Rat        // capacity: the shard's processor count
	eng *core.Scheduler // asked whether a pending join has entered

	// at is the stamp every change to an entry carries, so a replication
	// cut from log index i ships only the entries stamped >= i. It is the
	// shard's log length, except inside a flush, where it stays at the
	// length the flush started from (Shard.flush advances it when it
	// returns). A follower that applied a cut taken at log length L needs
	// every later change; no cut runs mid-flush, so each later change is
	// stamped >= L.
	at int

	// tasks holds every task name ever admitted for a join; the entry
	// outlives the task because the engine rejects re-joining a departed
	// name (its accounting is retained), so admission must too.
	tasks map[string]*taskEntry
	// total is the sum of live entries' requested weights.
	total frac.Rat
	// dig is the books digest: the XOR of every entry's h, kept
	// running by touch and restore.
	dig uint64
	// last is the newest end of the stamp-order list: stamp moves an
	// entry there, and at never falls, so walking prev from last meets
	// the entries newest stamp first, and state(from) stops at the
	// first one stamped below from.
	last *taskEntry
}

// taskEntry is one task's admission record.
type taskEntry struct {
	// name is the canonical interned copy of the task's wire name.
	name string
	// w is the requested weight; meaningful only while live.
	w frac.Rat
	// live means the admitted join has not fully left: w counts toward
	// total. A dead entry only burns the name.
	live bool
	// pending marks a join the engine has not let in, staged or held
	// for condition J; waiting clears it once the task has entered.
	// Reweights and leaves for a pending task are refused (409
	// conflict), so an admitted mutation never hits a held task.
	pending bool
	// leaving marks an admitted leave still staged. Its weight leaves
	// the books at the boundary that hands the leave to the engine,
	// which holds the task until rule L permits.
	leaving bool
	// at is admission.at as of the entry's last change.
	at int
	// h is the entry's hash as of its last change, its share of
	// admission.dig; 0 for an entry not yet hashed into it.
	h uint64
	// prev and next link the entries in stamp order (see
	// admission.last).
	prev, next *taskEntry
}

func newAdmission(eng *core.Scheduler) *admission {
	return &admission{
		m:     frac.FromInt(int64(eng.M())),
		eng:   eng,
		tasks: make(map[string]*taskEntry),
	}
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

// newTaskEntry interns the wire name and allocates the entry — the one
// deliberate allocation of the admission path, paid once per task
// lifetime (joins only; reweights and leaves hit existing entries).
//
//lint:allocok per-task-lifetime allocation: joins intern the name and entry once
func newTaskEntry(raw []byte, w frac.Rat) *taskEntry {
	return &taskEntry{name: string(raw), w: w, live: true, pending: true}
}

// touch records a change to e, made just before: it stamps e and swaps
// e's old hash in the running books digest for its new one.
//
//lint:noalloc hot admission path: one entry hash per admitted command
func (a *admission) touch(e *taskEntry) {
	a.stamp(e)
	a.dig ^= e.h
	e.h = e.hash()
	a.dig ^= e.h
}

// stamp stamps e at a.at and moves it to the newest end of the
// stamp-order list; a new entry joins the list here.
func (a *admission) stamp(e *taskEntry) {
	e.at = a.at
	if a.last == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.prev, e.next = a.last, nil
	if a.last != nil {
		a.last.next = e
	}
	a.last = e
}

// admitJoin reserves name and weight for a joining task and returns the
// canonical interned name.
//
//lint:noalloc hot admission path; rejections and entry creation sit at allocok boundaries
func (a *admission) admitJoin(raw []byte, w frac.Rat) (string, *admissionError) {
	if a.tasks[string(raw)] != nil {
		return "", reject(errConflict, "task name %q was already used on this shard", raw)
	}
	if a.headroom().Less(w) {
		return "", rejectWeight(a.headroom(),
			"join %s at weight %s exceeds property (W): headroom %s of M=%s", raw, w, a.headroom(), a.m)
	}
	e := newTaskEntry(raw, w)
	a.touch(e)
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
		return "", reject(errUnknown, "task %q never joined this shard", raw)
	}
	if !e.live {
		return "", reject(errConflict, "task %q has left this shard", raw)
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
	a.touch(e)
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
		return "", reject(errUnknown, "task %q never joined this shard", raw)
	}
	if !e.live {
		return "", reject(errConflict, "task %q has already left this shard", raw)
	}
	if a.waiting(e) {
		return "", reject(errConflict, "task %q has a join still pending; retry next slot", raw)
	}
	if e.leaving {
		return "", reject(errConflict, "task %q is already leaving", raw)
	}
	e.leaving = true
	a.touch(e)
	return e.name, nil
}

// waiting reports whether the engine still holds e's join, clearing
// the pending mark once the task has entered. Only a pending entry asks
// the engine; a nil entry, a join a damaged file staged without books,
// reads as not waiting.
//
//lint:noalloc hot admission path
func (a *admission) waiting(e *taskEntry) bool {
	if e != nil && e.pending && a.eng.Joined(e.name) {
		e.pending = false
		a.touch(e)
	}
	return e != nil && e.pending
}

// release frees the task's weight for good once the engine took its
// leave, or refused its admitted join (which admission rules out). The
// name stays burned: names are never reusable.
func (a *admission) release(name string) {
	e := a.tasks[name]
	if e == nil {
		return
	}
	if e.live {
		a.total = a.total.Sub(e.w)
		e.live = false
	}
	e.pending, e.leaving = false, false
	a.touch(e)
}

// state serializes the entries stamped >= from: all of them for a
// snapshot (from 0), the ones changed since the cut a follower holds
// for a replication tail. restore upserts them. Slices are sorted so the
// encoding is byte-stable. It predates the single-map layout. It walks
// only those entries, newest first, so a tail cut costs what changed
// since from, not every name the shard has admitted.
type admissionState struct {
	Names     []string     `json:"names"`
	Requested []taskWeight `json:"requested"`
	Pending   []string     `json:"pending_joins,omitempty"`
	Leaving   []string     `json:"leaving,omitempty"`
}

type taskWeight struct {
	Task   string   `json:"task"`
	Weight frac.Rat `json:"weight"`
}

func (a *admission) state(from int) admissionState {
	var st admissionState
	n := 0
	for e := a.last; e != nil && e.at >= from; e = e.prev {
		n++
	}
	st.Names = make([]string, 0, n)
	for e := a.last; e != nil && e.at >= from; e = e.prev {
		st.Names = append(st.Names, e.name)
		if e.live {
			st.Requested = append(st.Requested, taskWeight{Task: e.name, Weight: e.w})
		}
		if e.pending {
			st.Pending = append(st.Pending, e.name)
		}
		if e.leaving {
			st.Leaving = append(st.Leaving, e.name)
		}
	}
	sort.Strings(st.Names)
	sort.Slice(st.Requested, func(i, j int) bool { return st.Requested[i].Task < st.Requested[j].Task })
	sort.Strings(st.Pending)
	sort.Strings(st.Leaving)
	return st
}

// restore upserts the entries st carries: each one is replaced by its
// state in st and stamped at a.at, and entries st does not name are
// left alone. Into empty books this is a plain restore; a follower folds
// every tail's changed entries the same way.
//
// Every entry st rewrites is first taken out of the running digest
// (detach leaves h == 0) and hashed back in once at the end, so the
// digest stays the XOR over all entries even for a tail that lists a
// name in one set but not another.
func (a *admission) restore(st admissionState) {
	detach := func(e *taskEntry) {
		a.dig ^= e.h
		e.h = 0
	}
	reset := func(name string) *taskEntry {
		e := a.tasks[name]
		if e == nil {
			e = &taskEntry{name: name}
			a.tasks[name] = e
		} else if e.live {
			a.total = a.total.Sub(e.w)
		}
		detach(e)
		*e = taskEntry{name: e.name, prev: e.prev, next: e.next}
		a.stamp(e)
		return e
	}
	for _, name := range st.Names {
		reset(name)
	}
	for _, tw := range st.Requested {
		e := reset(tw.Task) // a no-op for a listed name; guards a weight listed alone or twice
		e.live = true
		e.w = tw.Weight
		a.total = a.total.Add(tw.Weight)
	}
	for _, name := range st.Pending {
		if e := a.tasks[name]; e != nil {
			detach(e)
			e.pending = true
		}
	}
	for _, name := range st.Leaving {
		if e := a.tasks[name]; e != nil {
			detach(e)
			e.leaving = true
		}
	}
	// An entry whose true hash is 0 would be hashed again here; that
	// XORs in 0, so the digest stays right.
	attach := func(name string) {
		if e := a.tasks[name]; e != nil && e.h == 0 {
			e.h = e.hash()
			a.dig ^= e.h
		}
	}
	for _, name := range st.Names {
		attach(name)
	}
	for _, tw := range st.Requested {
		attach(tw.Task)
	}
	for _, name := range st.Pending {
		attach(name)
	}
	for _, name := range st.Leaving {
		attach(name)
	}
}

// digest is an order-independent digest of the whole books: the XOR of
// one FNV-1a hash per entry over what state encodes of it, so books
// rebuilt by folding the same entries in any order digest the same.
// touch and restore keep it running, so reading it costs nothing.
func (a *admission) digest() uint64 { return a.dig }

// hash is FNV-1a over the entry's name, then its marks and requested
// weight in a fixed-width tail (a dead entry's weight is not part of
// the books), so distinct entries cannot encode alike.
func (e *taskEntry) hash() uint64 {
	var w frac.Rat
	var marks byte
	if e.live {
		w, marks = e.w, 1
	}
	if e.pending {
		marks |= 2
	}
	if e.leaving {
		marks |= 4
	}
	// Inlined FNV-1a, as in core.StateDigest. The tail is the marks
	// byte, then Num and Den as 8 little-endian bytes each, folded in
	// with shifts.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(e.name); i++ {
		h = (h ^ uint64(e.name[i])) * prime64
	}
	h = (h ^ uint64(marks)) * prime64
	num, den := uint64(w.Num()), uint64(w.Den())
	for i := 0; i < 64; i += 8 {
		h = (h ^ num>>i&0xff) * prime64
	}
	for i := 0; i < 64; i += 8 {
		h = (h ^ den>>i&0xff) * prime64
	}
	return h
}
