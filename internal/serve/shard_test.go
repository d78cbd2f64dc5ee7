package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frac"
)

func testShard(t *testing.T, cfg ShardConfig, mailboxCap int) *Shard {
	t.Helper()
	sh, err := newShard(0, cfg, mailboxCap)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// admitOne pushes a single command through admission on the test
// goroutine (the test is the single writer until start() is called).
func admitOne(sh *Shard, op core.CommandOp, task string, w frac.Rat) CommandResult {
	c := wireCmd{Command: core.Command{Op: op, Weight: w}, raw: []byte(task)}
	return sh.admit(&c)
}

func TestAdmissionPropertyW(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 8)

	if res := admitOne(sh, core.OpJoin, "A", frac.New(1, 2)); res.Status != "queued" {
		t.Fatalf("join A: %+v", res)
	}
	if res := admitOne(sh, core.OpJoin, "B", frac.New(1, 4)); res.Status != "queued" {
		t.Fatalf("join B: %+v", res)
	}
	// Headroom is down to 1/4; a 1/2 join must be rejected with the exact
	// remainder.
	res := admitOne(sh, core.OpJoin, "C", frac.New(1, 2))
	if res.Status != "rejected" || res.Error != errWeight || res.Code != 409 {
		t.Fatalf("over-capacity join admitted: %+v", res)
	}
	if res.Headroom != "1/4" {
		t.Fatalf("headroom = %q, want 1/4", res.Headroom)
	}
	// A fitting join still passes afterwards.
	if res := admitOne(sh, core.OpJoin, "D", frac.New(1, 4)); res.Status != "queued" {
		t.Fatalf("join D: %+v", res)
	}
	// Duplicate name: conflict, not weight.
	res = admitOne(sh, core.OpJoin, "A", frac.New(1, 8))
	if res.Status != "rejected" || res.Error != errConflict {
		t.Fatalf("duplicate join: %+v", res)
	}
	// Unknown task reweight.
	res = admitOne(sh, core.OpReweight, "nope", frac.New(1, 8))
	if res.Status != "rejected" || res.Error != errUnknown || res.Code != 404 {
		t.Fatalf("unknown reweight: %+v", res)
	}
	// Reweight of a task whose join is still pending is a conflict: the
	// engine does not know the task yet.
	res = admitOne(sh, core.OpReweight, "A", frac.New(1, 8))
	if res.Status != "rejected" || res.Error != errConflict {
		t.Fatalf("reweight before join applied: %+v", res)
	}
	sh.advance(1) // boundary: joins apply
	// Now the reweight is admissible, but only within headroom: A may go
	// to 1/4 (total 3/4) but not to weights that burst M.
	if res := admitOne(sh, core.OpReweight, "A", frac.New(1, 4)); res.Status != "queued" {
		t.Fatalf("reweight A: %+v", res)
	}
	if got := sh.adm.total.String(); got != "3/4" {
		t.Fatalf("requested total = %s, want 3/4", got)
	}
	if sh.ctr.failedApplies != 0 {
		t.Fatalf("failedApplies = %d", sh.ctr.failedApplies)
	}
}

func TestBatchAppliesAtSlotBoundary(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 2}, 8)
	admitOne(sh, core.OpJoin, "A", frac.New(1, 4))
	admitOne(sh, core.OpJoin, "B", frac.New(1, 3))
	// Staged, not applied: the engine is still empty.
	if n := len(sh.eng.TaskNames()); n != 0 {
		t.Fatalf("engine saw %d tasks before the boundary", n)
	}
	if len(sh.batch) != 2 {
		t.Fatalf("batch length %d, want 2", len(sh.batch))
	}
	sh.advance(1)
	if n := len(sh.eng.TaskNames()); n != 2 {
		t.Fatalf("engine has %d tasks after the boundary, want 2", n)
	}
	if got := sh.eng.TotalSchedWeight().String(); got != "7/12" {
		t.Fatalf("engine total weight %s, want 7/12", got)
	}
	if len(sh.batch) != 0 {
		t.Fatal("batch not cleared at boundary")
	}
	if sh.ctr.applied != 2 || sh.ctr.failedApplies != 0 {
		t.Fatalf("applied=%d failed=%d", sh.ctr.applied, sh.ctr.failedApplies)
	}
}

func TestDeferredLeaveRuleL(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 8)
	admitOne(sh, core.OpJoin, "A", frac.New(1, 3))
	sh.advance(2)
	res := admitOne(sh, core.OpLeave, "A", frac.Rat{})
	if res.Status != "queued" {
		t.Fatalf("leave: %+v", res)
	}
	// A second leave while the first is pending is a conflict.
	if res := admitOne(sh, core.OpLeave, "A", frac.Rat{}); res.Error != errConflict {
		t.Fatalf("double leave: %+v", res)
	}
	// The weight leaves the books at the boundary that hands the leave
	// to the engine, and rule L holds A there until d(A_1) = 3.
	sh.advance(1)
	if sh.adm.tasks["A"] != nil || !sh.adm.total.IsZero() {
		t.Fatalf("A booked %+v, requested total %s after the boundary; want no entry and 0", sh.adm.tasks["A"], sh.adm.total)
	}
	if m, _ := sh.eng.Metrics("A"); !m.Active || !m.Leaving {
		t.Fatalf("engine has A active %v, leaving %v at t=3; want both until rule L permits", m.Active, m.Leaving)
	}
	sh.advance(1)
	if m, _ := sh.eng.Metrics("A"); m.Active || m.Leaving {
		t.Fatalf("engine has A active %v, leaving %v after slot 3; want neither", m.Active, m.Leaving)
	}
	if sh.ctr.failedApplies != 0 {
		t.Fatalf("failedApplies = %d", sh.ctr.failedApplies)
	}
	// The freed weight is reusable, the name is not.
	if res := admitOne(sh, core.OpJoin, "A", frac.New(1, 3)); res.Error != errConflict {
		t.Fatalf("rejoin of burned name: %+v", res)
	}
	if res := admitOne(sh, core.OpJoin, "A2", frac.New(1, 3)); res.Status != "queued" {
		t.Fatalf("join into freed weight: %+v", res)
	}
}

// TestDeferredJoinConditionJ: admission tracks requested weights, but
// the engine's transient scheduling weight can exceed them while
// reweight-downs await enactment. A join admitted by property (W) but
// blocked by condition J must defer, not fail.
func TestDeferredJoinConditionJ(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 2}, 8)
	for _, name := range []string{"A", "B", "C", "D"} {
		if res := admitOne(sh, core.OpJoin, name, frac.New(1, 2)); res.Status != "queued" {
			t.Fatalf("join %s: %+v", name, res)
		}
	}
	sh.advance(2)
	// Drop everyone to 1/8: requested total 1/2, engine swt still 2 until
	// the negative changes enact.
	for _, name := range []string{"A", "B", "C", "D"} {
		if res := admitOne(sh, core.OpReweight, name, frac.New(1, 8)); res.Status != "queued" {
			t.Fatalf("reweight %s: %+v", name, res)
		}
	}
	if res := admitOne(sh, core.OpJoin, "E", frac.New(1, 2)); res.Status != "queued" {
		t.Fatalf("join E rejected by admission: %+v", res)
	}
	sh.advance(1)
	deferredAtFirstBoundary := sh.eng.JoinQueue() > 0
	for i := 0; i < 30 && !sh.eng.Joined("E"); i++ {
		sh.advance(1)
	}
	if !sh.eng.Joined("E") {
		t.Fatal("join E never entered within 30 slots")
	}
	if !deferredAtFirstBoundary && sh.ctr.deferred == 0 {
		t.Log("join E was never deferred (engine drained swt immediately); condition-J path untested here")
	}
	if sh.ctr.failedApplies != 0 {
		t.Fatalf("failedApplies = %d", sh.ctr.failedApplies)
	}
}

func TestMailboxBackpressure(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 2)
	// Loop not started: submits park in the mailbox until it is full.
	for i := 0; i < 2; i++ {
		p := sh.pool.newPending()
		p.kind = pendQuery
		if !sh.submit(p) {
			t.Fatalf("submit %d rejected below capacity", i)
		}
	}
	p := sh.pool.newPending()
	p.kind = pendQuery
	if sh.submit(p) {
		t.Fatal("submit accepted beyond mailbox capacity")
	}
	sh.pool.freePending(p)
}

// TestShardLoopDrain exercises the concurrent path: many goroutines
// submit through the mailbox while the loop runs, then the shard stops
// and every in-flight record still gets a reply.
func TestShardLoopDrain(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 4}, 16)
	sh.start()
	const workers = 8
	const perWorker = 50
	results := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := sh.pool.newPending()
				p.kind = pendQuery
				if !sh.submit(p) {
					sh.pool.freePending(p)
					continue
				}
				rep := <-p.reply
				sh.pool.freePending(p)
				if rep.status != nil {
					results[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	sh.stop()
	total := 0
	for _, n := range results {
		total += n
	}
	if total == 0 {
		t.Fatal("no queries answered")
	}
	if got := sh.reqs.queries.Load(); got != int64(total) {
		t.Fatalf("shard counted %d queries, workers saw %d", got, total)
	}
}

// TestQueuedRecordsPoliceW queues command records before the loop
// starts, so it finds them all waiting. Each command fits the books the
// loop starts from, but the records do not fit together: every join and
// reweight must be checked against the headroom the commands answered
// before it left.
func TestQueuedRecordsPoliceW(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 8)
	for _, name := range []string{"A", "B", "C"} {
		if res := admitOne(sh, core.OpJoin, name, frac.New(1, 4)); res.Status != "queued" {
			t.Fatalf("join %s: %+v", name, res)
		}
	}
	sh.advance(1) // A, B and C apply: total 3/4, headroom 1/4

	cmd := func(op core.CommandOp, task string, w frac.Rat) wireCmd {
		return wireCmd{Command: core.Command{Op: op, Weight: w}, raw: []byte(task)}
	}
	queued := CommandResult{Status: "queued", Slot: 1}
	overW := func(headroom string) CommandResult {
		return CommandResult{Status: "rejected", Code: 409, Error: errWeight, Headroom: headroom}
	}
	records := []struct {
		cmds []wireCmd
		want []CommandResult
	}{
		// B goes up to 1/2, which fills M, and back down to 1/4.
		{[]wireCmd{cmd(core.OpReweight, "B", frac.New(1, 2)), cmd(core.OpReweight, "B", frac.New(1, 4))},
			[]CommandResult{queued, queued}},
		// D takes the last 1/4.
		{[]wireCmd{cmd(core.OpJoin, "D", frac.New(1, 4))},
			[]CommandResult{queued}},
		// Both fit the books the loop started from; neither fits now.
		{[]wireCmd{cmd(core.OpReweight, "C", frac.New(1, 2)), cmd(core.OpJoin, "E", frac.New(1, 8))},
			[]CommandResult{overW("1/4"), overW("0")}},
		// F fits only because A's reweight down freed 1/8.
		{[]wireCmd{cmd(core.OpReweight, "A", frac.New(1, 8)), cmd(core.OpJoin, "F", frac.New(1, 8))},
			[]CommandResult{queued, queued}},
		// C's leave frees its weight only at the slot boundary, so G is
		// past capacity.
		{[]wireCmd{cmd(core.OpReweight, "A", frac.New(1, 16)), cmd(core.OpLeave, "C", frac.Rat{}), cmd(core.OpJoin, "G", frac.New(1, 8))},
			[]CommandResult{queued, queued, overW("1/16")}},
	}
	var ps []*pending
	for i, r := range records {
		p := sh.pool.newPending()
		p.kind = pendCommands
		p.cmds = append(p.cmds, r.cmds...)
		if !sh.submit(p) {
			t.Fatalf("submit record %d rejected below capacity", i)
		}
		ps = append(ps, p)
	}
	q := sh.pool.newPending()
	q.kind = pendQuery
	if !sh.submit(q) {
		t.Fatal("submit query rejected below capacity")
	}

	sh.start()
	for i, p := range ps {
		rep := <-p.reply
		if len(rep.results) != len(records[i].want) {
			t.Fatalf("record %d: %d results for %d commands", i, len(rep.results), len(records[i].want))
		}
		for j, got := range rep.results {
			got.Reason = "" // the wording is not pinned here
			if want := records[i].want[j]; got != want {
				t.Errorf("record %d command %d: got %+v, want %+v", i, j, got, want)
			}
		}
		sh.pool.freePending(p)
	}
	st := (<-q.reply).status
	sh.pool.freePending(q)
	if st.RequestedWt != "15/16" || st.Headroom != "1/16" {
		t.Errorf("requested %s, headroom %s after the records; want 15/16 and 1/16", st.RequestedWt, st.Headroom)
	}
	adv := sh.pool.newPending()
	adv.kind = pendAdvance
	adv.slots = 1
	if !sh.submit(adv) {
		t.Fatal("submit advance rejected")
	}
	<-adv.reply
	sh.pool.freePending(adv)
	sh.stop()
	if n := sh.ctr.failedApplies; n != 0 {
		t.Fatalf("failedApplies = %d after the boundary", n)
	}
	if n := sh.ctr.rejectedW; n != 3 {
		t.Fatalf("rejectedW = %d, want 3", n)
	}
}

func TestStateDumpMatchesEngine(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 2, RecordSchedule: true}, 8)
	admitOne(sh, core.OpJoin, "A", frac.New(1, 4))
	admitOne(sh, core.OpJoin, "B", frac.New(1, 3))
	sh.advance(10)
	var b strings.Builder
	if err := sh.eng.WriteState(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "task A") || !strings.Contains(b.String(), "slot 5:") {
		t.Fatalf("state dump missing expected sections:\n%s", b.String())
	}
}

// TestEarlyReleaseLeaveDeparts: a lone 1/8 task on two processors runs
// one subtask per slot under early release, so by t=3 it has run three
// and rule L holds it until d(T_3) = 24. Its leave, admitted at t=3,
// frees its weight at the boundary that hands it to the engine, and the
// engine lets the task go once slot 24 is stepped; until then the shard
// counts one deferred leave.
func TestEarlyReleaseLeaveDeparts(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 2, EarlyRelease: true}, 8)
	admitOne(sh, core.OpJoin, "T", frac.New(1, 8))
	sh.advance(3)
	if res := admitOne(sh, core.OpLeave, "T", frac.Rat{}); res.Status != "queued" {
		t.Fatalf("leave: %+v", res)
	}
	sh.advance(1)
	for sh.eng.Now() <= 24 {
		if st := sh.status(sh.eng.Live(), false); st.DeferredLeaves != 1 || st.Headroom != "2" || st.ActiveTasks != 1 {
			t.Fatalf("at t=%d: %d deferred leaves, headroom %s, %d active; want 1, 2 and 1 until slot 24 is stepped",
				st.Now, st.DeferredLeaves, st.Headroom, st.ActiveTasks)
		}
		sh.advance(1)
	}
	if st := sh.status(sh.eng.Live(), false); st.DeferredLeaves != 0 || st.Headroom != "2" || st.ActiveTasks != 0 {
		t.Fatalf("at t=%d: %d deferred leaves, headroom %s, %d active; want 0, 2 and 0",
			st.Now, st.DeferredLeaves, st.Headroom, st.ActiveTasks)
	}
	if got := sh.ctr.deferred; got != 1 {
		t.Fatalf("deferred counter %d, want 1 for the leave the engine held", got)
	}
	if sh.ctr.failedApplies != 0 {
		t.Fatalf("failedApplies = %d", sh.ctr.failedApplies)
	}
}

// TestBoundaryStatusFoldsLiveTasks: a boundary status's engine
// aggregates (active tasks, deferred leaves, max |drift|, Σ|lag|) equal
// the fold over AllMetrics they replaced, and publishing it allocates
// the same and costs about the same after 4,000 tasks have joined and
// left as before any did. The AllMetrics fold took 0.59 ms a publish at
// that point, against microseconds for 16 live tasks.
func TestBoundaryStatusFoldsLiveTasks(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 4}, 8)
	for i := 0; i < 16; i++ {
		admitOne(sh, core.OpJoin, fmt.Sprintf("r%d", i), frac.New(1+int64(i%2), 64))
	}
	sh.advance(1)
	check := func(when string) (leaving int) {
		t.Helper()
		st := sh.status(sh.eng.Live(), false)
		active, maxDrift, sumLag := 0, frac.Zero, frac.Zero
		for _, m := range sh.eng.AllMetrics() {
			if m.Active {
				active++
				sumLag = sumLag.Add(m.Lag.Abs())
			}
			if m.Leaving {
				leaving++
			}
			maxDrift = frac.Max(maxDrift, m.MaxAbsDrift)
		}
		if st.ActiveTasks != active || st.DeferredLeaves != leaving ||
			st.MaxAbsDrift != maxDrift.String() || st.SumAbsLag != sumLag.String() {
			t.Fatalf("%s: status active %d, leaving %d, max drift %s, Σ|lag| %s; AllMetrics fold %d, %d, %s, %s",
				when, st.ActiveTasks, st.DeferredLeaves, st.MaxAbsDrift, st.SumAbsLag,
				active, leaving, maxDrift, sumLag)
		}
		return leaving
	}
	// cost returns a publish's allocations and the least time of five
	// runs of 200 publishes.
	cost := func() (float64, time.Duration) {
		allocs := testing.AllocsPerRun(50, sh.publishStatus)
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < 200; i++ {
				sh.publishStatus()
			}
			best = min(best, time.Since(start)/200)
		}
		return allocs, best
	}
	check("resident tasks")
	allocs0, ns0 := cost()

	// Churn: four 1/4 tasks join, run and leave every three slots; rule
	// L holds each leave a slot or two.
	sawLeaving := false
	for round := 0; round < 1000; round++ {
		for i := 0; i < 4; i++ {
			admitOne(sh, core.OpJoin, fmt.Sprintf("c%d_%d", round, i), frac.New(1, 4))
		}
		sh.advance(1)
		for i := 0; i < 4; i++ {
			if res := admitOne(sh, core.OpLeave, fmt.Sprintf("c%d_%d", round, i), frac.Rat{}); res.Status != "queued" {
				t.Fatalf("round %d leave: %+v", round, res)
			}
		}
		sh.advance(1)
		if round%100 == 0 {
			sawLeaving = check(fmt.Sprintf("round %d", round)) > 0 || sawLeaving
		}
		sh.advance(1)
	}
	if !sawLeaving {
		t.Fatal("no check saw a leave held by rule L")
	}
	check("after churn")
	if n := len(sh.eng.TaskNames()); n != 16+4000 {
		t.Fatalf("engine holds %d tasks, want %d", n, 16+4000)
	}
	allocs1, ns1 := cost()
	if allocs1 != allocs0 {
		t.Errorf("publish allocates %.1f objects after churn, %.1f before", allocs1, allocs0)
	}
	if ns1 > 5*ns0 {
		t.Errorf("publish costs %v after 4,000 departed tasks, %v before", ns1, ns0)
	}
	if sh.ctr.failedApplies != 0 {
		t.Fatalf("failedApplies = %d", sh.ctr.failedApplies)
	}
}
