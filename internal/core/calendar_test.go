package core

import (
	"strings"
	"testing"

	"repro/internal/frac"
	"repro/internal/model"
)

// newTestScheduler builds a tiny two-task scheduler for calendar tests.
func newTestScheduler(t *testing.T) *Scheduler {
	t.Helper()
	sys := model.System{
		M: 2,
		Tasks: []model.Spec{
			{Name: "A", Weight: frac.New(1, 4)},
			{Name: "B", Weight: frac.New(1, 3)},
		},
	}
	s, err := New(Config{M: 2}, sys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestEventKindString(t *testing.T) {
	want := map[eventKind]string{
		evKindJoin:    "join",
		evKindEnact:   "enact",
		evKindRelease: "release",
		evKindER:      "erfair",
		evKindMiss:    "miss",
		evKindResolve: "resolve",
	}
	if len(want) != int(numEventKinds) {
		t.Fatalf("test covers %d kinds, engine declares %d", len(want), numEventKinds)
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("eventKind(%d).String() = %q, want %q", uint8(k), got, name)
		}
	}
	if got := numEventKinds.String(); !strings.Contains(got, "eventKind(") {
		t.Errorf("out-of-range String() = %q, want fallthrough rendering", got)
	}
}

func TestCalendarDispatch(t *testing.T) {
	s := newTestScheduler(t)
	// Every kind must map to a distinct heap.
	seen := make(map[*eventHeap]eventKind)
	for k := eventKind(0); k < numEventKinds; k++ {
		h := s.calendar(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("calendar(%v) and calendar(%v) share a heap", prev, k)
		}
		seen[h] = k
	}
	// pushEvent routes to the kind's heap and stamps increasing seq. A
	// lazy calendar (release) keeps both pushes for one task; an indexed
	// one (resolve) keeps one entry, re-keyed to the later push.
	base := s.pendingEvents()
	ts := s.tasks[0]
	rel := len(s.calendar(evKindRelease).ev)
	s.pushEvent(evKindRelease, tevent{at: model.Time(9), ts: ts})
	s.pushEvent(evKindRelease, tevent{at: model.Time(9), ts: ts})
	if got := len(s.calendar(evKindRelease).ev); got != rel+2 {
		t.Fatalf("release heap holds %d events, want %d", got, rel+2)
	}
	s.pushEvent(evKindResolve, tevent{at: model.Time(7), ts: ts})
	first := s.calendar(evKindResolve).ev[0].seq
	s.pushEvent(evKindResolve, tevent{at: model.Time(8), ts: ts})
	if got := len(s.calendar(evKindResolve).ev); got != 1 {
		t.Fatalf("resolve heap holds %d events, want 1", got)
	}
	if got := s.pendingEvents(); got != base+3 {
		t.Fatalf("pendingEvents = %d, want %d", got, base+3)
	}
	if _, ok := s.calendar(evKindResolve).popDue(model.Time(7)); ok {
		t.Fatal("resolve entry still due at the first push's time 7")
	}
	e, ok := s.calendar(evKindResolve).popDue(model.Time(8))
	if !ok || e.ts != ts || e.seq <= first {
		t.Fatalf("re-keyed entry: ok=%v seq %d (first push %d), want the later push", ok, e.seq, first)
	}
	if ts.calIdx[calSlotResolve] != -1 {
		t.Fatalf("popped task keeps resolve index %d", ts.calIdx[calSlotResolve])
	}
	h := s.calendar(evKindRelease)
	for len(h.ev) > 0 && h.ev[0].at < 9 {
		h.popDue(9) // New's time-0 releases
	}
	e1, ok1 := h.popDue(model.Time(9))
	e2, ok2 := h.popDue(model.Time(9))
	if !ok1 || !ok2 || e1.seq >= e2.seq {
		t.Fatalf("pop order not seq-deterministic: (%v,%v) seq %d,%d", ok1, ok2, e1.seq, e2.seq)
	}
}

func TestCalendarUnknownKindPanics(t *testing.T) {
	s := newTestScheduler(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("calendar(numEventKinds) did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "unknown event kind") {
			t.Fatalf("panic %v does not name the invariant", r)
		}
	}()
	s.calendar(numEventKinds)
}
