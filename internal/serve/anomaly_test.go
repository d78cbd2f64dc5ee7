package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/stats"
	"repro/internal/workgen"
)

// admitTemplate pushes workgen commands through admission on the test
// goroutine, returning how many were queued vs rejected. Rejections are
// tolerated (templates exist to provoke them); a failed apply never is.
func admitTemplate(t *testing.T, sh *Shard, cmds []core.Command) (queued, rejected int) {
	t.Helper()
	for _, c := range cmds {
		switch c.Op {
		case core.OpJoin, core.OpLeave, core.OpReweight:
		default:
			t.Fatalf("template emitted non-wire op %v", c.Op)
		}
		res := admitOne(sh, c.Op, c.Task, c.Weight)
		switch res.Status {
		case "queued":
			queued++
		case "rejected":
			rejected++
		default:
			t.Fatalf("command %+v: status %q", c, res.Status)
		}
	}
	return queued, rejected
}

func anomalies(sh *Shard) (rejectSpikes, driftExcur, backpressure, joinPeak int64) {
	return sh.ctr.anomRejectSpikes, sh.ctr.anomDriftExcur,
		sh.ctr.anomBackpressure, sh.ctr.deferredJoinPeak
}

// TestAnomalyCountersCleanRun drives a polite workload and requires
// every anomaly counter to stay zero — the counters must measure
// degradation, not traffic.
func TestAnomalyCountersCleanRun(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 2, DriftBound: frac.New(1, 2)}, 64)
	for _, task := range []string{"A", "B", "C", "D"} {
		if res := admitOne(sh, core.OpJoin, task, frac.New(1, 64)); res.Status != "queued" {
			t.Fatalf("join %s: %+v", task, res)
		}
	}
	sh.advance(1)
	for i := 0; i < 10; i++ {
		w := frac.New(int64(1+i%2), 64)
		for _, task := range []string{"A", "B", "C", "D"} {
			if res := admitOne(sh, core.OpReweight, task, w); res.Status != "queued" {
				t.Fatalf("reweight %s: %+v", task, res)
			}
		}
		sh.advance(1)
	}
	rs, de, bp, jp := anomalies(sh)
	if rs != 0 || de != 0 || bp != 0 || jp != 0 {
		t.Errorf("clean run fired anomalies: rejectSpikes=%d driftExcur=%d backpressure=%d joinPeak=%d", rs, de, bp, jp)
	}
	if sh.ctr.failedApplies != 0 {
		t.Errorf("failedApplies = %d", sh.ctr.failedApplies)
	}
}

// TestAnomalyRejectSpikeAdmissionCamp camps the shard at M - 1/64 and
// floods fitting-looking joins: every one must bounce with headroom
// attached, the rejection-rate spike counter must fire, and not a
// single apply may fail — the graceful-degradation contract.
func TestAnomalyRejectSpikeAdmissionCamp(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 64)
	ts, err := workgen.NewTemplateStream(workgen.TemplateAdmissionCamp, stats.NewStream(1, 0), "P", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, r := admitTemplate(t, sh, ts.Setup(nil))
	if r != 0 {
		t.Fatalf("camp setup rejected %d of its own joins", r)
	}
	sh.advance(1)
	ts.Advanced()

	totalRejected := 0
	for round := 0; round < 4; round++ {
		q, r = admitTemplate(t, sh, ts.Next(nil, 16))
		if q != 0 {
			t.Fatalf("round %d: camped shard admitted %d joins", round, q)
		}
		totalRejected += r
		sh.advance(1)
		ts.Advanced()
	}
	if totalRejected != 64 {
		t.Fatalf("rejected %d, want 64", totalRejected)
	}
	rs, _, _, _ := anomalies(sh)
	if rs == 0 {
		t.Error("rejection flood did not fire the reject-spike counter")
	}
	if sh.ctr.failedApplies != 0 {
		t.Errorf("failedApplies = %d", sh.ctr.failedApplies)
	}
	if sh.ctr.rejectedW != 64 {
		t.Errorf("rejectedW = %d, want 64", sh.ctr.rejectedW)
	}
}

// TestAnomalyRejectSpikeNeedsVolume checks the spike window has a
// minimum-decision floor: a lone rejection in a quiet window is not a
// spike.
func TestAnomalyRejectSpikeNeedsVolume(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 64)
	if res := admitOne(sh, core.OpJoin, "A", frac.New(1, 2)); res.Status != "queued" {
		t.Fatalf("join A: %+v", res)
	}
	if res := admitOne(sh, core.OpJoin, "B", frac.New(1, 2)); res.Status != "queued" {
		t.Fatalf("join B: %+v", res)
	}
	// One over-capacity join: rejected, but below anomalyMinDecisions.
	if res := admitOne(sh, core.OpJoin, "C", frac.New(1, 2)); res.Status != "rejected" {
		t.Fatalf("join C: %+v", res)
	}
	sh.advance(1)
	if rs, _, _, _ := anomalies(sh); rs != 0 {
		t.Errorf("a single quiet-window rejection counted as a spike (%d)", rs)
	}
}

// TestAnomalyDriftExcursionsStorm hammers one task with wide reweights
// under a tight drift bound: excursions must be observed while property
// (W) holds and nothing fails to apply. With the bound disabled (zero)
// the counter must stay silent under the identical storm.
func TestAnomalyDriftExcursionsStorm(t *testing.T) {
	run := func(bound frac.Rat) (*Shard, int64) {
		sh := testShard(t, ShardConfig{M: 1, DriftBound: bound}, 64)
		ts, err := workgen.NewTemplateStream(workgen.TemplateReweightStorm, stats.NewStream(1, 0), "P", 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, r := admitTemplate(t, sh, ts.Setup(nil)); r != 0 {
			t.Fatalf("storm setup rejected %d joins", r)
		}
		sh.advance(1)
		ts.Advanced()
		for round := 0; round < 64; round++ {
			q, r := admitTemplate(t, sh, ts.Next(nil, 1))
			if q != 1 || r != 0 {
				t.Fatalf("round %d: storm reweight queued=%d rejected=%d (storm must stay admission-clean)", round, q, r)
			}
			sh.advance(2)
			ts.Advanced()
		}
		if sh.ctr.failedApplies != 0 {
			t.Fatalf("failedApplies = %d", sh.ctr.failedApplies)
		}
		_, de, _, _ := anomalies(sh)
		return sh, de
	}

	if _, de := run(frac.Rat{}); de != 0 {
		t.Errorf("disabled drift bound still counted %d excursions", de)
	}
	if _, de := run(frac.New(1, 1024)); de == 0 {
		t.Error("storm under a 1/1024 drift bound observed no excursions")
	}
}

// TestAnomalyDriftExcursionsLiveOnly: a task that leaves with a drift
// past the bound stops counting. A reweighted task builds a drift past
// 1/1024 while a calm task runs beside it; once the first has left,
// no live task exceeds the bound, and the counter stays flat over the
// next 20 boundaries, though the departed task's frozen drift still
// exceeds it.
func TestAnomalyDriftExcursionsLiveOnly(t *testing.T) {
	bound := frac.New(1, 1024)
	sh := testShard(t, ShardConfig{M: 1, DriftBound: bound}, 64)
	for _, task := range []string{"A", "B"} {
		if res := admitOne(sh, core.OpJoin, task, frac.New(1, 64)); res.Status != "queued" {
			t.Fatalf("join %s: %+v", task, res)
		}
	}
	sh.advance(1)
	for round := 0; round < 16; round++ {
		w := frac.New(int64(1+30*(round%2)), 64) // the reweight-storm template's swing
		if res := admitOne(sh, core.OpReweight, "A", w); res.Status != "queued" {
			t.Fatalf("round %d: reweight A to %v: %+v", round, w, res)
		}
		sh.advance(2)
	}
	if _, de, _, _ := anomalies(sh); de == 0 {
		t.Fatal("reweighting A past the bound counted no excursion")
	}
	if res := admitOne(sh, core.OpLeave, "A", frac.Rat{}); res.Status != "queued" {
		t.Fatalf("leave A: %+v", res)
	}
	for slot := 0; ; slot++ {
		sh.advance(1)
		if m, _ := sh.eng.Metrics("A"); !m.Active {
			if !bound.Less(m.Drift.Abs()) {
				t.Fatalf("A left with |drift| %v, not past the bound %v; the scenario shows nothing", m.Drift.Abs(), bound)
			}
			break
		}
		if slot == 64 {
			t.Fatal("A's leave did not take effect within 64 slots")
		}
	}
	if b, _ := sh.eng.Metrics("B"); !b.Active || bound.Less(b.Drift.Abs()) {
		t.Fatalf("calm task B: active %v, |drift| %v", b.Active, b.Drift.Abs())
	}
	_, before, _, _ := anomalies(sh)
	for i := 0; i < 20; i++ {
		sh.advance(1)
	}
	if _, after, _, _ := anomalies(sh); after != before {
		t.Fatalf("drift excursions went %d -> %d over 20 boundaries with no live task past the bound", before, after)
	}
	if sh.ctr.failedApplies != 0 {
		t.Fatalf("failedApplies = %d", sh.ctr.failedApplies)
	}
}

// TestDeferredJoinPeakDrains provokes a condition-J deferral (a join
// admitted on requested weight that must wait for scheduling weight to
// decay), checks the peak gauge records it, and checks the queue drains
// back to empty while the peak sticks.
func TestDeferredJoinPeakDrains(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 64)
	if res := admitOne(sh, core.OpJoin, "A", frac.New(1, 2)); res.Status != "queued" {
		t.Fatalf("join A: %+v", res)
	}
	if res := admitOne(sh, core.OpJoin, "X", frac.New(1, 4)); res.Status != "queued" {
		t.Fatalf("join X: %+v", res)
	}
	sh.advance(2)
	// Reweight down and immediately join into the freed *requested*
	// headroom: scheduling weight has not decayed yet (1/2 + 1/4 + 1/2
	// would exceed M), so the join defers under condition J.
	if res := admitOne(sh, core.OpReweight, "A", frac.New(1, 64)); res.Status != "queued" {
		t.Fatalf("reweight A: %+v", res)
	}
	if res := admitOne(sh, core.OpJoin, "B", frac.New(1, 2)); res.Status != "queued" {
		t.Fatalf("join B: %+v", res)
	}
	sh.advance(1)
	_, _, _, peak := anomalies(sh)
	if peak < 1 {
		t.Fatalf("deferred-join peak %d after a condition-J deferral", peak)
	}
	for i := 0; i < 64 && sh.eng.JoinQueue() > 0; i++ {
		sh.advance(1)
	}
	if n := sh.eng.JoinQueue(); n != 0 {
		t.Fatalf("deferred-join queue never drained (%d left)", n)
	}
	if _, _, _, after := anomalies(sh); after != peak {
		t.Errorf("peak moved from %d to %d after the drain; it is a high-watermark", peak, after)
	}
	if sh.ctr.failedApplies != 0 {
		t.Errorf("failedApplies = %d", sh.ctr.failedApplies)
	}
	// B eventually joined for real.
	if !sh.eng.Joined("B") {
		t.Error("deferred join B never entered")
	}
}

// TestAnomalyBackpressureWindows checks the backpressure spike counter
// counts windows with fresh 429s, not individual 429s, and stays silent
// across windows without new ones.
func TestAnomalyBackpressureWindows(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 4)
	// Window 1: three 429s (as the HTTP layer would record them).
	sh.reqs.backpressured.Add(3)
	sh.advance(1)
	if _, _, bp, _ := anomalies(sh); bp != 1 {
		t.Fatalf("backpressure spikes = %d after one hot window, want 1", bp)
	}
	// Quiet windows: no fresh 429s, no new spikes.
	sh.advance(3)
	if _, _, bp, _ := anomalies(sh); bp != 1 {
		t.Fatalf("backpressure spikes grew to %d across quiet windows", bp)
	}
	// Another hot window.
	sh.reqs.backpressured.Add(1)
	sh.advance(1)
	if _, _, bp, _ := anomalies(sh); bp != 2 {
		t.Fatalf("backpressure spikes = %d after a second hot window, want 2", bp)
	}
}

// TestHeavyFloodCapsAtM floods maximum-weight joins: exactly 2M must
// land, the rest bounce, and the requested total pins at M exactly.
func TestHeavyFloodCapsAtM(t *testing.T) {
	const m = 2
	sh := testShard(t, ShardConfig{M: m}, 64)
	ts, err := workgen.NewTemplateStream(workgen.TemplateHeavyFlood, stats.NewStream(1, 0), "P", m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmds := ts.Setup(nil); len(cmds) != 0 {
		t.Fatalf("flood has no setup, got %d commands", len(cmds))
	}
	queued, rejected := 0, 0
	for round := 0; round < 4; round++ {
		q, r := admitTemplate(t, sh, ts.Next(nil, 8))
		queued += q
		rejected += r
		sh.advance(1)
		ts.Advanced()
	}
	if queued != 2*m {
		t.Errorf("flood admitted %d half-weight joins on m=%d, want %d", queued, m, 2*m)
	}
	if rejected != 32-2*m {
		t.Errorf("flood rejected %d, want %d", rejected, 32-2*m)
	}
	if got := sh.adm.total; got != frac.FromInt(m) {
		t.Errorf("requested total %s, want exactly %d", got, m)
	}
	if sh.ctr.failedApplies != 0 {
		t.Errorf("failedApplies = %d", sh.ctr.failedApplies)
	}
}
