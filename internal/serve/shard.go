package serve

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
)

// ShardConfig is the serializable per-shard engine configuration. It is
// recorded in snapshots so a restore rebuilds an identically configured
// engine (the digest check would catch a mismatch).
type ShardConfig struct {
	// M is the shard's processor count.
	M int `json:"m"`
	// Policy selects the reweighting scheme: "oi" (default), "lj", or
	// "hybrid".
	Policy string `json:"policy,omitempty"`
	// OIThreshold drives the hybrid policy: a change with |to-from|
	// below the threshold uses rules O/I, anything larger leave/join.
	// Exact rational, so the hybrid decision is deterministic.
	OIThreshold frac.Rat `json:"oi_threshold"`
	// EarlyRelease enables the ERfair extension.
	EarlyRelease bool `json:"early_release,omitempty"`
	// RecordSchedule keeps the per-slot schedule log; required for the
	// byte-exact differential tests, costly over long horizons.
	RecordSchedule bool `json:"record_schedule,omitempty"`
	// DriftBound, when positive, is the anomaly threshold for
	// instantaneous per-task |drift|: a slot boundary where any live
	// task exceeds it bumps pd2d_anomaly_drift_excursions_total. Exact
	// rational so the comparison is deterministic. Observability only —
	// it never influences scheduling, admission, or digests (CoreConfig
	// ignores it).
	DriftBound frac.Rat `json:"drift_bound,omitempty"`
}

func parsePolicy(s string) (core.PolicyKind, error) {
	switch s {
	case "", "oi":
		return core.PolicyOI, nil
	case "lj":
		return core.PolicyLJ, nil
	case "hybrid":
		return core.PolicyHybrid, nil
	}
	return 0, fmt.Errorf("serve: policy %q is not one of oi, lj, hybrid", s)
}

func (c ShardConfig) policyName() string {
	if c.Policy == "" {
		return "oi"
	}
	return c.Policy
}

// CoreConfig resolves the wire config into an engine config. Policing
// is always on — property (W) is the service's admission contract — and
// invariant checking is always on so violations are observable on the
// status endpoint.
func (c ShardConfig) CoreConfig() (core.Config, error) {
	pol, err := parsePolicy(c.Policy)
	if err != nil {
		return core.Config{}, err
	}
	if c.M < 1 {
		return core.Config{}, fmt.Errorf("serve: shard needs M >= 1, got %d", c.M)
	}
	cfg := core.Config{
		M:               c.M,
		Policy:          pol,
		Police:          true,
		CheckInvariants: true,
		EarlyRelease:    c.EarlyRelease,
		RecordSchedule:  c.RecordSchedule,
	}
	if pol == core.PolicyHybrid {
		th := c.OIThreshold
		cfg.UseOI = func(task string, from, to frac.Rat) bool {
			return to.Sub(from).Abs().Less(th)
		}
	}
	return cfg, nil
}

// shardState is one shard's state, the part a tail transfers: its
// config and seed, the engine, the applied log and the
// admitted-but-unapplied batch. Shard runs it behind the mailbox;
// Replica rebuilds it from tails. Staged work is held as the commands
// the log will record; flush restamps At with the boundary that
// applies them.
type shardState struct {
	id    int
	cfg   ShardConfig
	seed  model.System
	eng   *core.Scheduler
	log   cmdLog         // commands actually applied, in order
	batch []core.Command // admitted this slot, applies at next boundary
}

// build gives the state a fresh engine over seed.
func (st *shardState) build(cfg ShardConfig, seed model.System) error {
	ccfg, err := cfg.CoreConfig()
	if err != nil {
		return err
	}
	eng, err := core.New(ccfg, seed)
	if err != nil {
		return err
	}
	st.cfg, st.seed, st.eng = cfg, seed, eng
	return nil
}

// Shard is one independently scheduled engine instance. Its state and
// the fields below the channel block are owned by the run goroutine
// between Start and the close of done; the HTTP side communicates
// through the mailbox (see mailbox.go), reads what the loop published
// in view, and bumps the counts in reqs.
type Shard struct {
	shardState
	// adm is the admission books, folded from the state (foldBooks).
	adm *admission

	mbox  chan *pending
	pool  pendingPool
	tickc chan struct{}
	quit  chan struct{}
	done  chan struct{}

	// Anomaly-window baselines: counter values at the previous
	// publishStatus, so noteAnomalies sees per-window deltas.
	lastDecisions     int64
	lastRejections    int64
	lastBackpressured int64

	ctr  counters
	reqs requestCounts
	view view
}

// newShard builds a stopped shard with an empty engine. Tasks arrive
// through commands.
func newShard(id int, cfg ShardConfig, mailboxCap int) (*Shard, error) {
	sh := &Shard{shardState: shardState{id: id}}
	err := sh.build(cfg, model.System{M: cfg.M})
	if err == nil {
		sh.adm, err = foldBooks(sh.eng, nil)
	}
	if err != nil {
		return nil, err
	}
	sh.initLoop(mailboxCap)
	return sh, nil
}

// initLoop gives a built shard the channels its loop reads (a mailbox
// of mailboxCap records, at least one, and the tick, quit and done
// channels) and publishes its first status. The shard is not started.
func (sh *Shard) initLoop(mailboxCap int) {
	if mailboxCap < 1 {
		mailboxCap = 1
	}
	sh.mbox = make(chan *pending, mailboxCap)
	sh.tickc = make(chan struct{}, 1)
	sh.quit = make(chan struct{})
	sh.done = make(chan struct{})
	sh.publishStatus()
}

// start launches the single-writer loop.
func (sh *Shard) start() { go sh.run() }

// stop asks the loop to drain the mailbox and exit, and waits for it.
// The caller must have stopped the HTTP side first: nothing may submit
// to the mailbox once draining begins.
func (sh *Shard) stop() {
	close(sh.quit)
	<-sh.done
}

// submit offers a record to the mailbox without blocking. A false
// return is backpressure: the caller answers 429 and frees the record.
func (sh *Shard) submit(p *pending) bool {
	select {
	case sh.mbox <- p:
		return true
	default:
		return false
	}
}

// TickC is the shard's advance-tick input: a non-blocking send here
// advances the shard one slot. The channel is buffered (capacity 1) so
// a slow shard coalesces ticks instead of queueing them. The wall-clock
// side lives in cmd/pd2d; serve itself never reads a clock.
func (sh *Shard) TickC() chan<- struct{} { return sh.tickc }

// run is the shard's single-writer loop: every engine and admission
// mutation happens here, serialized by the mailbox. Each record is
// answered as it is received, so a shard holds at most its mailbox
// capacity plus one unanswered records.
//
//lint:noalloc the mailbox drain; per-request work must not allocate beyond the declared reply boundaries
func (sh *Shard) run() {
	defer close(sh.done)
	for {
		select {
		case p := <-sh.mbox:
			sh.handle(p)
		case <-sh.tickc:
			sh.advance(1)
		case <-sh.quit:
			// The server has quiesced the submitters, so the mailbox can
			// only shrink: drain it, answer everything, then exit.
			for {
				select {
				case p := <-sh.mbox:
					sh.handle(p)
				default:
					sh.publishStatus()
					return
				}
			}
		}
	}
}

// handle answers one mailbox record. Every dequeued record gets exactly
// one reply.
func (sh *Shard) handle(p *pending) {
	switch p.kind {
	case pendCommands:
		results := p.results[:0]
		for i := range p.cmds {
			results = append(results, sh.admit(&p.cmds[i]))
		}
		p.results = results
		sh.ctr.mutations++
		sh.publish(nil)
		p.reply <- reply{results: results, now: sh.eng.Now()}
	case pendAdvance:
		sh.advance(p.slots)
		p.reply <- reply{now: sh.eng.Now()}
	case pendQuery:
		sh.reqs.queries.Add(1)
		st := sh.status(sh.eng.Live(), true)
		p.reply <- reply{status: st, now: sh.eng.Now()}
	case pendState:
		var b strings.Builder
		_ = sh.eng.WriteState(&b) // strings.Builder writes cannot fail
		//lint:allow hotalloc the state reply is a caller-owned copy; the render itself reuses the engine's buffer
		p.reply <- reply{state: []byte(b.String()), digest: sh.eng.StateDigest(), now: sh.eng.Now()}
	case pendLog:
		t, err := sh.tail(p.from, sh.ctr.mutations)
		p.reply <- reply{tail: t, err: err, now: sh.eng.Now()}
	default:
		panic(fmt.Sprintf("serve: unhandled pending kind %d", p.kind))
	}
}

// admit runs the property-(W) admission decision for one command and,
// on success, stages it for the next slot boundary. The staged command
// carries the admission layer's canonical interned name and the slot it
// was admitted in, and not the raw alias, so the batch never retains
// pooled request memory.
func (sh *Shard) admit(c *wireCmd) CommandResult {
	var (
		aerr *admissionError
		name string
	)
	switch c.Op {
	case core.OpJoin:
		name, aerr = sh.adm.admitJoin(c.raw, c.Weight)
	case core.OpReweight:
		name, aerr = sh.adm.admitReweight(c.raw, c.Weight)
	case core.OpLeave:
		name, aerr = sh.adm.admitLeave(c.raw)
	default:
		panic(fmt.Sprintf("serve: unhandled wire op %s", c.Op))
	}
	if aerr != nil {
		return sh.rejected(aerr)
	}
	staged := c.Command
	staged.At = sh.eng.Now()
	staged.Task = name
	sh.batch = append(sh.batch, staged)
	sh.ctr.accepted++
	return CommandResult{Status: "queued", Slot: sh.eng.Now()}
}

// rejected maps an admission error to its wire result and counters.
//
//lint:allocok formats the rejection reason and headroom; runs only on the rejection path
func (sh *Shard) rejected(aerr *admissionError) CommandResult {
	res := CommandResult{Status: "rejected", Error: aerr.kind, Reason: aerr.reason}
	switch aerr.kind {
	case errWeight:
		res.Code = 409
		res.Headroom = aerr.headroom.String()
		sh.ctr.rejectedW++
	case errUnknown:
		res.Code = 404
		sh.ctr.rejectedOther++
	default: // errConflict and anything future
		res.Code = 409
		sh.ctr.rejectedOther++
	}
	return res
}

// advance steps the clock n slots, flushing the staged batch at each
// boundary first so same-slot mutations apply atomically before the
// slot is scheduled.
func (sh *Shard) advance(n int64) {
	if n < 1 {
		n = 1
	}
	for i := int64(0); i < n; i++ {
		sh.flush()
		sh.eng.Step()
		sh.ctr.advances++
	}
	sh.ctr.mutations++
	sh.publishStatus()
}

// flush hands the staged batch to the engine at the current slot
// boundary, in arrival order, and logs each command. The engine holds a
// join until condition J admits it, behind any join already held, and
// a leave until rule L permits it; a leave's weight leaves the books
// here. Admission guarantees each apply succeeds; anything else is
// counted in failedApplies, which tests pin to zero.
func (sh *Shard) flush() {
	now := sh.eng.Now()
	for _, c := range sh.batch {
		c.At = now
		err := sh.eng.Apply(c)
		if err != nil {
			sh.ctr.failedApplies++
		} else {
			sh.log.append(c)
			sh.ctr.applied++
		}
		switch c.Op {
		case core.OpJoin:
			if err != nil {
				sh.adm.release(c.Task)
			} else if sh.adm.waiting(sh.adm.tasks[c.Task]) {
				sh.ctr.deferred++
			}
		case core.OpLeave:
			sh.adm.release(c.Task)
			if m, _ := sh.eng.Metrics(c.Task); m.Leaving {
				sh.ctr.deferred++
			}
		case core.OpReweight:
			// The books took the new weight at admission.
		default:
			panic(fmt.Sprintf("serve: unhandled staged op %s", c.Op))
		}
	}
	sh.batch = sh.batch[:0]
	// Deferred-join depth peaks right after a flush that deferred work;
	// track it here so multi-slot advances cannot hide a transient.
	sh.ctr.deferredJoinPeak = max(sh.ctr.deferredJoinPeak, int64(sh.eng.JoinQueue()))
}

// status assembles the shard's wire status from engine and admission
// state and live, the engine's Live summary. Run-goroutine only.
//
//lint:allocok composes a fresh status snapshot per query/publish; the reply escapes to HTTP handlers, so reuse would race
func (sh *Shard) status(live core.LiveSummary, withTasks bool) *ShardStatus {
	st := &ShardStatus{
		Shard:             sh.id,
		Now:               sh.eng.Now(),
		Policy:            sh.cfg.policyName(),
		M:                 sh.cfg.M,
		TotalSchedWt:      sh.eng.TotalSchedWeight().String(),
		TotalSchedWtFloat: sh.eng.TotalSchedWeight().Float64(),
		RequestedWt:       sh.adm.total.String(),
		Headroom:          sh.adm.headroom().String(),
		Misses:            int64(len(sh.eng.Misses())),
		Holes:             sh.eng.Holes(),
		OverheadSlots:     sh.eng.OverheadSlots(),
		Violations:        len(sh.eng.Violations()),
		PendingBatch:      len(sh.batch),
		DeferredJoins:     sh.eng.JoinQueue(),
	}
	sh.ctr.fill(st, &sh.reqs)
	// The aggregates fold only the live tasks, so a boundary's publish
	// costs O(live tasks) however many tasks the shard has held.
	maxDrift := sh.eng.MaxAbsDrift()
	st.ActiveTasks = live.Active
	st.DeferredLeaves = live.Leaving
	st.MaxAbsDrift = maxDrift.String()
	st.MaxAbsDriftFloat = maxDrift.Float64()
	st.SumAbsLag = live.SumAbsLag.String()
	st.SumAbsLagFloat = live.SumAbsLag.Float64()
	if withTasks {
		for _, m := range sh.eng.AllMetrics() {
			st.Tasks = append(st.Tasks, TaskStatus{
				Name:        m.Name,
				Weight:      m.Weight.String(),
				SchedWeight: m.SchedWeight.String(),
				Active:      m.Active,
				Scheduled:   m.Scheduled,
				Drift:       m.Drift.String(),
				DriftFloat:  m.Drift.Float64(),
				MaxAbsDrift: m.MaxAbsDrift.String(),
				Lag:         m.Lag.String(),
				LagFloat:    m.Lag.Float64(),
				Misses:      m.Misses,
			})
		}
	}
	return st
}

// anomalyMinDecisions is the minimum admission decisions in a window
// before its rejection rate is judged: tiny windows (a lone 409) are
// noise, not an anomaly.
const anomalyMinDecisions = 8

// noteAnomalies closes the observation window that ended at this slot
// boundary and bumps the anomaly counters the window earned:
//
//   - reject spike: at least anomalyMinDecisions admission decisions
//     and a majority of them rejections;
//   - backpressure spike: any fresh 429s since the last boundary;
//   - drift excursion: some live task's instantaneous |drift|, whose
//     largest is maxDrift, exceeds the configured DriftBound (exact
//     comparison; zero bound disables). A departed task's frozen drift
//     never counts.
//
// Counters cross the window monotonically, so deltas against the saved
// baselines are exact. Run-goroutine only.
func (sh *Shard) noteAnomalies(maxDrift frac.Rat) {
	accepted := sh.ctr.accepted
	rejections := sh.ctr.rejectedW + sh.ctr.rejectedOther
	decisions := accepted + rejections
	dDec := decisions - sh.lastDecisions
	dRej := rejections - sh.lastRejections
	sh.lastDecisions = decisions
	sh.lastRejections = rejections
	if dDec >= anomalyMinDecisions && 2*dRej > dDec {
		sh.ctr.anomRejectSpikes++
	}
	if bp := sh.reqs.backpressured.Load(); bp > sh.lastBackpressured {
		sh.ctr.anomBackpressure++
		sh.lastBackpressured = bp
	}
	if sh.cfg.DriftBound.Sign() > 0 && sh.cfg.DriftBound.Less(maxDrift) {
		sh.ctr.anomDriftExcur++
	}
}

// publish refreshes the view that status reads and /metrics copy: the
// books' total, the batch length and the counters, and st, when not
// nil, as the boundary status. The loop calls it after every command
// record and at every boundary, before it replies.
func (sh *Shard) publish(st *ShardStatus) {
	sh.view.store(st, sh.adm.total, len(sh.batch), &sh.ctr)
}

// publishStatus publishes a fresh boundary status. Called at every
// boundary and at loop exit. Anomaly windows close first so the
// published status carries their fresh values; both read one pass over
// the live tasks.
func (sh *Shard) publishStatus() {
	live := sh.eng.Live()
	sh.noteAnomalies(live.MaxDrift)
	sh.publish(sh.status(live, false))
}
