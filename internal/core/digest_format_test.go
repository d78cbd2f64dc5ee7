package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/frac"
)

// fmtState is the fmt-based reference renderer: the exact formatting
// code WriteState used before the allocation-free rewrite. appendState
// must reproduce these bytes forever — the digest is a compatibility
// surface (snapshot/restore proves shard identity by digest equality).
func fmtState(s *Scheduler) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d m=%d totalswt=%s holes=%d overhead=%d\n",
		s.now, s.cfg.M, s.totalSwt, s.holes, s.overheadSlots)
	for _, m := range s.AllMetrics() {
		fmt.Fprintf(&b, "task %s wt=%s swt=%s sched=%d sw=%s csw=%s ps=%s drift=%s maxdrift=%s lag=%s init=%d enact=%d miss=%d mig=%d pre=%d\n",
			m.Name, m.Weight, m.SchedWeight, m.Scheduled,
			m.CumSW, m.CumCSW, m.CumPS, m.Drift, m.MaxAbsDrift, m.Lag,
			m.Initiations, m.Enactments, m.Misses, m.Migrations, m.Preemptions)
	}
	for _, miss := range s.misses {
		fmt.Fprintf(&b, "miss %s sub=%d deadline=%d\n", miss.Task, miss.Subtask, miss.Deadline)
	}
	for _, v := range s.violations {
		fmt.Fprintf(&b, "violation %s\n", v)
	}
	for t, row := range s.schedule {
		fmt.Fprintf(&b, "slot %d:", t)
		for _, e := range row {
			fmt.Fprintf(&b, " %s/%d@%d", e.Task, e.Subtask, e.CPU)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// TestWriteStateMatchesFmt pins the hand-rolled appendState against the
// fmt twin on a scheduler with real history: reweights (negative drift,
// non-integer rationals), recorded schedule rows, and synthetic miss
// and violation entries to cover every branch of the renderer.
func TestWriteStateMatchesFmt(t *testing.T) {
	cfg, sys := engineSystem(16)
	cfg.RecordSchedule = true
	s := mustNew(t, cfg, sys)
	s.RunTo(40)
	if err := s.Initiate(sys.Tasks[0].Name, rat("3/7")); err != nil {
		t.Fatal(err)
	}
	s.RunTo(90)
	// Synthetic entries so the miss/violation branches render even when
	// the run itself is well-behaved.
	s.misses = append(s.misses, MissEvent{Task: "X", Subtask: 12, Deadline: 34})
	s.violations = append(s.violations, "synthetic violation for format coverage")

	var got strings.Builder
	if err := s.WriteState(&got); err != nil {
		t.Fatal(err)
	}
	want := fmtState(s)
	if got.String() != want {
		t.Fatalf("appendState diverged from the fmt reference\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}

	h := fnv.New64a()
	if _, err := h.Write([]byte(want)); err != nil {
		t.Fatal(err)
	}
	if d := s.StateDigest(); d != h.Sum64() {
		t.Fatalf("StateDigest %#x != fnv-1a of WriteState %#x", d, h.Sum64())
	}
}

// TestRatAppendMatchesString pins frac.Rat.Append to String byte for
// byte across signs, integers and extremes.
func TestRatAppendMatchesString(t *testing.T) {
	cases := []frac.Rat{
		frac.Zero, frac.One, frac.Half,
		rat("3/7"), rat("-3/7"), rat("-5"), rat("1000000007/999999937"),
	}
	for _, r := range cases {
		if got := string(r.Append(nil)); got != r.String() {
			t.Errorf("Rat.Append(%s) = %q, want %q", r.String(), got, r.String())
		}
	}
}

// TestStateDigestSteadyStateAllocs proves the digest path is
// allocation-free once the render buffer is warm — the static hotalloc
// check's runtime counterpart. Each run Steps first, so StateDigest
// renders instead of returning its memo; Step itself is allocation-free
// at steady state (TestStepSteadyStateAllocs).
func TestStateDigestSteadyStateAllocs(t *testing.T) {
	cfg, sys := engineSystem(16)
	s := mustNew(t, cfg, sys)
	s.RunTo(100)
	s.StateDigest() // size the retained buffer
	avg := testing.AllocsPerRun(100, func() {
		s.Step()
		s.StateDigest()
	})
	if avg > 0.5 {
		t.Errorf("steady-state StateDigest allocates %.2f objects/run, want ~0", avg)
	}
}
