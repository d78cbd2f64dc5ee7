// Command pd2load is a closed-loop load generator for pd2d. It joins a
// population of tasks on every shard, then drives a stream of reweight
// commands (batched per request, optionally interleaved with advances)
// from N workers. Each worker is a closed loop over one shared
// net/http client: it posts one batch, reads the reply, and only then
// builds the next. Backpressure (429) is honoured by retrying after a
// capped exponential backoff floored at the server's Retry-After hint —
// backpressured commands are retried, never dropped.
//
// The total -requests budget is split across workers with the remainder
// distributed one-per-worker, so exactly -requests commands are
// delivered for any (requests, workers) pair.
//
// With -strict it exits non-zero unless the run was admission-clean:
// no property-(W) rejections, no engine invariant violations, no failed
// applies, no server errors — the serve-smoke CI gate.
//
// pd2load checks correctness; it is not a benchmark. Throughput and
// latency are measured by pd2bench (bench/README.md).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workgen"
)

type workerStats struct {
	sent          int64         // commands queued by the server
	posts         int64         // HTTP requests issued (excluding retries)
	retries       int64         // 429 retry attempts
	rejected      int64         // per-command rejections (409/404/400)
	serverErrors  int64         // 5xx responses
	transportErrs int64         // connection-level failures
	backoff       time.Duration // total time slept honouring backpressure
}

// config is the resolved flag set; run takes it whole so tests can
// drive every mode without re-parsing flags.
type config struct {
	base     string
	shards   int
	workers  int
	requests int
	batch    int
	tasks    int
	advEvery int
	seed     int64
	prefix   string
	strict   bool
	shape    string // load-shape name or inline grammar ("" = uniform)
	template string // pathological template name ("" = none)
	record   string // trace output path ("" = no recording)
	replay   string // trace input path ("" = generate load instead)
	route    string // cluster coordinator base URL ("" = single daemon at base)
	verify   bool   // replay every shard's log locally and compare digests
}

func main() {
	var cfg config
	flag.StringVar(&cfg.base, "addr", "http://127.0.0.1:8377", "pd2d base URL")
	flag.IntVar(&cfg.shards, "shards", 8, "number of shards to target")
	flag.IntVar(&cfg.workers, "workers", 8, "concurrent closed-loop workers")
	flag.IntVar(&cfg.requests, "requests", 50000, "total commands to send across all workers")
	flag.IntVar(&cfg.batch, "batch", 8, "commands per HTTP request")
	flag.IntVar(&cfg.tasks, "tasks", 16, "tasks to join per shard during setup")
	flag.IntVar(&cfg.advEvery, "advance-every", 64, "per worker, advance the target shard one slot every N posts (0 never)")
	flag.Int64Var(&cfg.seed, "seed", 1, "RNG seed for the weight stream")
	flag.StringVar(&cfg.prefix, "prefix", "L", "task-name prefix (shard names are never reusable; pick a fresh prefix when rerunning against a restored daemon)")
	flag.BoolVar(&cfg.strict, "strict", false, "exit non-zero unless the run is admission-clean (with -shape/-template: unless it degrades gracefully)")
	flag.StringVar(&cfg.shape, "shape", "", "temporal load shape: a built-in name (uniform, diurnal, ramp, spike, sine, flash-crowd) or inline name=rounds:rate:spread:churn,... (see docs/WORKGEN.md)")
	flag.StringVar(&cfg.template, "template", "", "pathological client template: reweight-storm, join-leave-churn, admission-camp, heavy-flood")
	flag.StringVar(&cfg.record, "record", "", "record the applied command stream to this trace file after the run")
	flag.StringVar(&cfg.replay, "replay", "", "replay a recorded trace against a fresh daemon and verify per-shard digests (ignores the generation flags)")
	flag.StringVar(&cfg.route, "route", "", "cluster coordinator base URL: resolve each shard's primary from its routing table and follow 307 reroutes (mutually exclusive with -record/-replay)")
	flag.BoolVar(&cfg.verify, "verify", false, "generate no load; fetch every shard's full log, replay it locally, and compare digests")
	flag.Parse()
	if _, err := run(cfg); err != nil {
		log.Fatalf("pd2load: %v", err)
	}
}

func run(cfg config) (workerStats, error) {
	var tot workerStats
	if cfg.route != "" && (cfg.record != "" || cfg.replay != "") {
		// Traces are per-daemon state; a routed cluster has no single
		// daemon to record from or replay against.
		return tot, fmt.Errorf("-record/-replay are not supported with -route")
	}
	client := newClient(cfg.workers)
	if cfg.replay != "" {
		return tot, runReplay(client, cfg)
	}
	if cfg.verify {
		return tot, runVerify(client, cfg)
	}
	if cfg.shards < 1 || cfg.workers < 1 || cfg.batch < 1 || cfg.tasks < 1 {
		return tot, fmt.Errorf("shards, workers, batch, tasks must all be >= 1")
	}
	if !plainPrefix(cfg.prefix) {
		return tot, fmt.Errorf("-prefix %q: use only ASCII letters, digits, '_', '-' and '.'", cfg.prefix)
	}
	if cfg.shape != "" && cfg.template != "" {
		return tot, fmt.Errorf("-shape and -template are mutually exclusive")
	}
	// Route mode resolves each shard's primary from the coordinator's
	// table before every post, so -addr is only used in the single-daemon
	// default.
	resolve := fixedResolver(cfg.base)
	var rt *router
	if cfg.route != "" {
		rt = newRouter(cfg.route, client)
		if err := rt.waitReady(10 * time.Second); err != nil {
			return tot, fmt.Errorf("route: %w", err)
		}
		resolve = rt.resolve
	}

	gens, tolerateRejections, err := buildGenerators(client, cfg, rt, resolve)
	if err != nil {
		return tot, err
	}
	if err := setupRun(client, cfg, resolve, gens, tolerateRejections); err != nil {
		return tot, fmt.Errorf("setup: %w", err)
	}

	// Each worker owns a slice of the total command budget and a
	// distinct stats slot (the results[i] worker-pool idiom).
	budgets := splitBudget(cfg.requests, cfg.workers)
	st := make([]workerStats, cfg.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st[w] = gens[w].drive(client, cfg.base, budgets[w], cfg.batch, cfg.advEvery)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for _, s := range st {
		tot.sent += s.sent
		tot.posts += s.posts
		tot.retries += s.retries
		tot.rejected += s.rejected
		tot.serverErrors += s.serverErrors
		tot.transportErrs += s.transportErrs
		tot.backoff += s.backoff
	}

	// Drain: advance each shard until no admitted work is pending, so
	// the audit (and any recording) sees every accepted command applied
	// — an admission-clean run then shows applied == accepted, and
	// deferred-join queues are proven to empty.
	if err := drainShards(client, resolve, cfg.shards); err != nil {
		return tot, fmt.Errorf("drain: %w", err)
	}

	if cfg.record != "" {
		if err := recordTrace(client, cfg.base, cfg.record, cfg.shards); err != nil {
			return tot, fmt.Errorf("record: %w", err)
		}
		fmt.Printf("pd2load: recorded trace to %s\n", cfg.record)
	}

	rep, err := audit(client, resolve, cfg.shards)
	if err != nil {
		return tot, fmt.Errorf("audit: %w", err)
	}
	fmt.Println(statsLine(tot, elapsed))
	fmt.Println(anomalyLine(tot, rep))
	if cfg.strict {
		ok := rep.healthy && tot.serverErrors == 0 && tot.transportErrs == 0
		if !tolerateRejections {
			ok = ok && rep.admissionClean && tot.rejected == 0
		}
		if !ok {
			fmt.Println("pd2load: STRICT FAIL")
			os.Exit(1)
		}
		if tolerateRejections {
			fmt.Println("pd2load: strict checks passed (graceful degradation: zero failed applies, zero violations)")
		} else {
			fmt.Println("pd2load: strict checks passed (admission-clean, zero failed applies, zero violations)")
		}
	}
	return tot, nil
}

// newClient builds the one client that carries all of a run's traffic,
// keeping an idle keep-alive connection per worker. It hands 307s back
// instead of following them: a worker must count each reroute against
// its cap and refresh its router, and the helpers follow them
// explicitly (see send).
func newClient(workers int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        workers * 2,
			MaxIdleConnsPerHost: workers * 2,
		},
		Timeout:       60 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
}

// statsLine renders the end-of-run throughput summary; TestStatsLine
// pins the format.
func statsLine(tot workerStats, elapsed time.Duration) string {
	rate := 0.0
	if elapsed > 0 {
		rate = float64(tot.sent) / elapsed.Seconds()
	}
	return fmt.Sprintf("pd2load: %d commands in %.2fs = %.0f commands/s (%d posts, %d retries, %d rejected, %d 5xx, %d transport errors, %.3fs backoff)",
		tot.sent, elapsed.Seconds(), rate, tot.posts, tot.retries, tot.rejected, tot.serverErrors, tot.transportErrs, tot.backoff.Seconds())
}

// anomalyLine renders the degradation summary: client-side backpressure
// plus the server's anomaly counters from the audit. TestStatsLine pins
// the format.
func anomalyLine(tot workerStats, rep auditReport) string {
	return fmt.Sprintf("pd2load: anomalies: %d 429s, %.3fs backoff, max deferred-join depth %d, reject spikes %d, drift excursions %d, backpressure spikes %d",
		tot.retries, tot.backoff.Seconds(), rep.deferredJoinPeak, rep.rejectSpikes, rep.driftExcursions, rep.backpressureSpikes)
}

// runReplay replays a recorded trace against a fresh daemon and
// verifies every shard reproduces its recorded digest byte-for-byte.
func runReplay(client *http.Client, cfg config) error {
	f, err := os.Open(cfg.replay)
	if err != nil {
		return err
	}
	tr, derr := workgen.DecodeTrace(f)
	if cerr := f.Close(); cerr != nil && derr == nil {
		derr = cerr
	}
	if derr != nil {
		return derr
	}
	results, rerr := workgen.Replay(client, cfg.base, tr)
	for _, r := range results {
		verdict := "MATCH"
		if !r.Match {
			verdict = "MISMATCH"
		}
		fmt.Printf("pd2load: replayed shard %d: %d commands over %d slots, digest %016x vs recorded %016x: %s\n",
			r.Shard, r.Commands, r.Slots, r.Digest, r.Want, verdict)
	}
	if rerr != nil {
		return rerr
	}
	fmt.Printf("pd2load: replay verified %d shard(s) byte-identical\n", len(results))
	return nil
}

// recordTrace snapshots every shard into a trace file (temp file +
// rename, so a crash never leaves a truncated trace).
func recordTrace(client *http.Client, base, path string, shards int) error {
	tr, err := workgen.Record(client, base, shards)
	if err != nil {
		return err
	}
	data, err := tr.EncodeToBytes()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// drainShards advances each shard until its staged batch and deferral
// queues are empty. Admission guarantees every admitted command
// eventually applies, so a queue that refuses to drain is a bug.
func drainShards(client *http.Client, resolve resolver, shards int) error {
	for s := 0; s < shards; s++ {
		pending := 1
		for i := 0; pending > 0; i++ {
			if i >= 256 {
				return fmt.Errorf("shard %d still has %d pending commands after 256 drain advances", s, pending)
			}
			if code, body, err := postShard(client, resolve, s, "advance", map[string]int{"slots": 1}); err != nil || code != http.StatusOK {
				return fmt.Errorf("drain advance shard %d: %d %s: %v", s, code, body, err)
			}
			base, err := resolve(s)
			if err != nil {
				return err
			}
			var st struct {
				PendingBatch   int `json:"pending_batch"`
				DeferredJoins  int `json:"deferred_joins"`
				DeferredLeaves int `json:"deferred_leaves"`
			}
			if err := getStatus(client, base, s, &st); err != nil {
				return err
			}
			pending = st.PendingBatch + st.DeferredJoins + st.DeferredLeaves
		}
	}
	return nil
}

// splitBudget divides requests across workers so the parts sum exactly
// to requests: the first requests%workers workers carry one extra.
func splitBudget(requests, workers int) []int {
	parts := make([]int, workers)
	per, extra := requests/workers, requests%workers
	for i := range parts {
		parts[i] = per
		if i < extra {
			parts[i]++
		}
	}
	return parts
}

const maxBackoff = 250 * time.Millisecond

// backoffDelay is the sleep before the attempt-th consecutive 429
// retry: exponential from 1ms, floored at the server's Retry-After
// hint, capped at maxBackoff, plus up to 25% jitter drawn from the
// worker's own RNG stream so runs stay reproducible per (seed, worker).
func backoffDelay(attempt int, hint time.Duration, rng *stats.RNG) time.Duration {
	if attempt > 10 {
		attempt = 10
	}
	d := time.Millisecond << attempt
	if hint > d {
		d = hint
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d + time.Duration(rng.Bounded(int(d/4)+1))
}

// plainPrefix reports whether p is non-empty and uses only ASCII
// letters, digits, '_', '-' and '.': the characters a task name can
// carry into a request body unescaped (appendBatch, appendCmds,
// queuedMarker). A prefix with a '"' or '\' would make a body invalid
// JSON or a different command.
func plainPrefix(p string) bool {
	const plain = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-."
	return p != "" && strings.TrimLeft(p, plain) == ""
}

// taskName is the canonical load-task name for (shard, index).
func taskName(prefix string, shard, i int) string { return fmt.Sprintf("%s%d_%d", prefix, shard, i) }

// command mirrors serve's wire command (kept local so the generator
// shares no code with the system under test).
type command struct {
	Op     string `json:"op"`
	Task   string `json:"task"`
	Weight string `json:"weight,omitempty"`
}

// genKind selects how a worker produces batches.
type genKind int

const (
	genUniform  genKind = iota // the classic anchor-reweight stream
	genShape                   // phase-modulated stream (workgen.ShapeStream)
	genTemplate                // pathological template (workgen.TemplateStream)
)

// genState is one worker's command source. Uniform workers rotate
// across shards over time; shape and template workers stay pinned to
// one shard, because their churn leaves must land on the shard that
// admitted the matching joins.
type genState struct {
	kind    genKind
	prefix  string
	shards  int
	shard   int  // current target shard
	rotate  bool // uniform only
	tasks   int
	batch   int // shape phases scale off the configured batch, not the tail
	rng     *stats.RNG
	sstream *workgen.ShapeStream
	tstream *workgen.TemplateStream
	scratch []core.Command

	rt         *router // nil = single daemon, no routing
	reroutes   int     // consecutive 307s without a non-redirect response
	rerouteCap int     // 0 = maxReroutes; tests lower it
}

// noteReroute counts a 307 and reports whether the worker should give
// up: the cap bounds a redirect loop (two nodes pointing at each other,
// or a table that never converges) at rerouteCap consecutive redirects.
func (g *genState) noteReroute() bool {
	g.reroutes++
	limit := g.rerouteCap
	if limit == 0 {
		limit = maxReroutes
	}
	return g.reroutes > limit
}

// nextBatch appends one batch's JSON body to b and reports how many
// commands it carries. Uniform and template streams emit exactly n;
// a shape stream emits whatever the current phase dictates (possibly
// zero for an idle phase), so -requests is a target rather than an
// exact count under -shape.
func (g *genState) nextBatch(b []byte, n int) ([]byte, int) {
	switch g.kind {
	case genUniform:
		return appendBatch(b, g.prefix, g.shard, n, g.tasks, g.rng), n
	case genShape:
		g.scratch = g.sstream.NextBatch(g.scratch[:0], g.batch)
		return appendCmds(b, g.scratch), len(g.scratch)
	case genTemplate:
		g.scratch = g.tstream.Next(g.scratch[:0], n)
		return appendCmds(b, g.scratch), len(g.scratch)
	default:
		panic("pd2load: unknown generator kind")
	}
}

// maybeRotate moves a uniform worker to the next shard every 13 posts
// so every shard sees load even when workers < shards.
func (g *genState) maybeRotate(posts int64) {
	if g.rotate && g.shards > 1 && posts%13 == 0 {
		g.shard = (g.shard + 1) % g.shards
	}
}

// advanced tells the stream a slot boundary passed on its shard, so
// churn joins posted before it may now be left.
func (g *genState) advanced() {
	if g.sstream != nil {
		g.sstream.Advanced()
	}
	if g.tstream != nil {
		g.tstream.Advanced()
	}
}

// appendCmds encodes workgen commands as a JSON array of wire commands.
// The streams emit only join, leave and reweight. Every name they build
// is a prefix run has checked (plainPrefix) plus ASCII letters, digits
// and '-', so AppendQuote, whose quoting is JSON's only for printable
// ASCII, adds nothing but the quotes.
func appendCmds(b []byte, cmds []core.Command) []byte {
	b = append(b, '[')
	for i, c := range cmds {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"`...)
		b = append(b, c.Op.String()...)
		b = append(b, `","task":`...)
		b = strconv.AppendQuote(b, c.Task)
		if c.Op != core.OpLeave {
			b = append(b, `,"weight":"`...)
			b = append(b, c.Weight.String()...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// shardM fetches the shard list and returns shard 0's processor count
// (all shards share one config); template and shape weight envelopes
// are sized against it.
func shardM(client *http.Client, resolve resolver) (int, error) {
	base, err := resolve(0)
	if err != nil {
		return 0, err
	}
	var shards []struct {
		M int `json:"m"`
	}
	if err := getJSON(client, base+"/v1/shards", &shards); err != nil {
		return 0, fmt.Errorf("listing shards: %w", err)
	}
	if len(shards) == 0 {
		return 0, fmt.Errorf("daemon reports no shards")
	}
	return shards[0].M, nil
}

// buildGenerators constructs one command source per worker and reports
// whether strict mode should tolerate per-command rejections (true for
// shapes, whose churn races slot boundaries, and for templates that
// exist to provoke rejections).
func buildGenerators(client *http.Client, cfg config, rt *router, resolve resolver) ([]*genState, bool, error) {
	gens := make([]*genState, cfg.workers)
	switch {
	case cfg.template != "":
		tmpl, err := workgen.TemplateByName(cfg.template)
		if err != nil {
			return nil, false, err
		}
		m, err := shardM(client, resolve)
		if err != nil {
			return nil, false, err
		}
		for w := range gens {
			rng := stats.NewStream(uint64(cfg.seed), uint64(w))
			ts, err := workgen.NewTemplateStream(tmpl, rng, fmt.Sprintf("%sw%d", cfg.prefix, w), m, cfg.tasks)
			if err != nil {
				return nil, false, err
			}
			gens[w] = &genState{kind: genTemplate, shards: cfg.shards, shard: w % cfg.shards, batch: cfg.batch, tstream: ts, rt: rt}
		}
		return gens, tmpl.ExpectsRejections(), nil
	case cfg.shape != "":
		sh, err := workgen.ShapeByName(cfg.shape)
		if err != nil {
			return nil, false, err
		}
		productive := false
		for i := range sh.Phases {
			if sh.Phases[i].BatchSize(cfg.batch) > 0 {
				productive = true
				break
			}
		}
		if !productive {
			return nil, false, fmt.Errorf("shape %s produces no commands at batch %d", sh.Name, cfg.batch)
		}
		m, err := shardM(client, resolve)
		if err != nil {
			return nil, false, err
		}
		maxNum := (32 * m) / cfg.tasks // total anchor weight stays <= m/2
		for w := range gens {
			rng := stats.NewStream(uint64(cfg.seed), uint64(w))
			shard := w % cfg.shards
			prefix := cfg.prefix
			anchor := func(i int) string { return taskName(prefix, shard, i) }
			ss, err := workgen.NewShapeStream(sh, rng, fmt.Sprintf("%sw%d", cfg.prefix, w), anchor, cfg.tasks, maxNum)
			if err != nil {
				return nil, false, err
			}
			gens[w] = &genState{kind: genShape, shards: cfg.shards, shard: shard, batch: cfg.batch, sstream: ss, rt: rt}
		}
		return gens, true, nil
	default:
		for w := range gens {
			gens[w] = &genState{
				kind: genUniform, prefix: cfg.prefix, shards: cfg.shards, shard: w % cfg.shards,
				// Routed workers stay pinned to one shard: a worker's
				// advances go to the primary its last post resolved.
				rotate: cfg.route == "", tasks: cfg.tasks, batch: cfg.batch,
				rng: stats.NewStream(uint64(cfg.seed), uint64(w)),
				rt:  rt,
			}
		}
		return gens, false, nil
	}
}

// setupRun prepares the shards' task populations. Uniform and shape
// runs share the anchor tasks joined by setup; template runs post each
// worker stream's own setup commands to its pinned shard. tolerate
// allows per-command rejections during setup — expected when several
// camp workers share a shard and the later ones find it full.
func setupRun(client *http.Client, cfg config, resolve resolver, gens []*genState, tolerate bool) error {
	if cfg.template == "" {
		return setup(client, resolve, cfg.prefix, cfg.shards, cfg.tasks)
	}
	var buf []byte
	for w, g := range gens {
		g.scratch = g.tstream.Setup(g.scratch[:0])
		if len(g.scratch) == 0 {
			continue
		}
		buf = appendCmds(buf[:0], g.scratch)
		code, body, err := postShard(client, resolve, g.shard, "commands", json.RawMessage(buf))
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("worker %d template setup: %d: %s", w, code, body)
		}
		var results []struct {
			Status string `json:"status"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(body, &results); err != nil {
			return err
		}
		for i, r := range results {
			if r.Status != "queued" && !tolerate {
				return fmt.Errorf("worker %d template setup command %d: %s (%s)", w, i, r.Status, r.Reason)
			}
		}
	}
	for s := 0; s < cfg.shards; s++ {
		if code, body, err := postShard(client, resolve, s, "advance", map[string]int{"slots": 1}); err != nil || code != http.StatusOK {
			return fmt.Errorf("shard %d setup advance: %d %s: %v", s, code, body, err)
		}
	}
	for _, g := range gens {
		g.advanced()
	}
	return nil
}

// setup joins the task population on every shard and advances one slot
// so the joins are applied before the load starts.
func setup(client *http.Client, resolve resolver, prefix string, shards, tasks int) error {
	for s := 0; s < shards; s++ {
		cmds := make([]command, tasks)
		for i := range cmds {
			// 1/64 each: even 16 tasks later reweighted up to 1/32 total
			// only 1/2, far inside any M >= 1 — the load stays
			// admission-clean by construction.
			cmds[i] = command{Op: "join", Task: taskName(prefix, s, i), Weight: "1/64"}
		}
		code, body, err := postShard(client, resolve, s, "commands", cmds)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("shard %d setup joins: %d: %s", s, code, body)
		}
		var results []struct {
			Status string `json:"status"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(body, &results); err != nil {
			return err
		}
		for i, r := range results {
			if r.Status != "queued" {
				return fmt.Errorf("shard %d setup join %d: %s (%s)", s, i, r.Status, r.Reason)
			}
		}
		if code, body, err = postShard(client, resolve, s, "advance", map[string]int{"slots": 1}); err != nil || code != http.StatusOK {
			return fmt.Errorf("shard %d setup advance: %d %s: %v", s, code, body, err)
		}
	}
	return nil
}

// queuedMarker counts accepted commands in a batch reply without a JSON
// decode. Safe here because every task name pd2load sends is built on a
// plain prefix (plainPrefix), so the marker cannot appear inside a
// rejection reason.
var queuedMarker = []byte(`"status":"queued"`)

var advanceBody = []byte(`{"slots":1}`)

// drive is one worker's closed loop: post one batch, read its reply,
// and retry the same batch after a capped backoff on 429 (and, routed,
// on 503 or a 307 reroute) before generating the next. The budget
// counts *delivered* commands — queued or rejected — so templates built
// to be rejected (admission camping, heavy flood) still terminate.
func (g *genState) drive(client *http.Client, base string, budget, batch, advEvery int) workerStats {
	var st workerStats
	// rng also feeds the backoff jitter; fall back to a fixed stream for
	// generators that carry their RNG inside a workgen stream.
	rng := g.rng
	if rng == nil {
		rng = stats.NewStream(uint64(g.shard), 1)
	}
	cmdPaths := make([]string, g.shards)
	advPaths := make([]string, g.shards)
	for s := range cmdPaths {
		cmdPaths[s] = fmt.Sprintf("/v1/shards/%d/commands", s)
		advPaths[s] = fmt.Sprintf("/v1/shards/%d/advance", s)
	}
	var body []byte
	n, target := 0, 0 // commands in body (0 = none awaiting a post) and their shard
	attempt := 0
	var advancesDone int64
	for st.sent+st.rejected < int64(budget) {
		if n == 0 {
			target = g.shard
			body, n = g.nextBatch(body[:0], min(batch, budget-int(st.sent+st.rejected)))
			st.posts++ // idle shape rounds still count, so advance pacing stays phase-driven
			if n > 0 {
				g.maybeRotate(st.posts)
			}
			// An idle phase round (n == 0) posts nothing but still lets
			// the due advances fire; the shape cycle is guaranteed to
			// reach a productive phase.
		}
		// Routed workers re-resolve their shard's primary every round, so
		// a table refresh (307 or version mismatch) takes effect on the
		// next post or advance.
		if g.rt != nil {
			if b, err := g.rt.resolve(target); err == nil {
				base = b
			}
		}
		if n > 0 {
			resp, reply, err := send(client, http.MethodPost, base+cmdPaths[target], body, false)
			if err != nil {
				st.transportErrs++
				return st
			}
			g.noteVersion(resp)
			if resp.StatusCode != http.StatusTemporaryRedirect {
				g.reroutes = 0
			}
			retry := false
			switch {
			case resp.StatusCode == http.StatusTooManyRequests:
				retry = true
			case resp.StatusCode == http.StatusTemporaryRedirect:
				// Stale route: the shard moved. Requeue through the same
				// capped backoff path as a 429 and chase Location.
				if g.noteReroute() {
					st.transportErrs++
					return st
				}
				retry = true
				if base, err = g.reroute(resp, base); err != nil {
					st.transportErrs++
					return st
				}
			case resp.StatusCode == http.StatusServiceUnavailable && g.rt != nil:
				// Cluster backpressure (migration gate draining, a
				// follower ack outstanding, table propagating): the
				// command was not acked, so retry it like a 429.
				retry = true
			case resp.StatusCode >= 500:
				st.serverErrors++
			case resp.StatusCode != http.StatusOK:
				st.rejected += int64(n)
			default:
				q := bytes.Count(reply, queuedMarker)
				st.sent += int64(q)
				st.rejected += int64(n - q)
			}
			if retry {
				st.retries++
				d := backoffDelay(attempt, retryAfter(resp), rng)
				attempt++
				st.backoff += d
				time.Sleep(d)
			} else {
				attempt = 0
				n = 0
			}
		}
		if advEvery > 0 {
			advanced := false
			for due := st.posts / int64(advEvery); advancesDone < due; advancesDone++ {
				resp, _, err := send(client, http.MethodPost, base+advPaths[g.shard], advanceBody, false)
				if err != nil {
					st.transportErrs++
					return st
				}
				g.noteVersion(resp)
				switch {
				case resp.StatusCode == http.StatusTemporaryRedirect:
					// The shard moved: chase the redirect for subsequent
					// requests. This advance is dropped — advances pace
					// the load, they are not part of the budget.
					if base, err = g.reroute(resp, base); err != nil {
						st.transportErrs++
						return st
					}
				case resp.StatusCode == http.StatusServiceUnavailable && g.rt != nil:
					// Cluster backpressure; the next due advance retries.
				case resp.StatusCode >= 500:
					st.serverErrors++
				}
				advanced = true
			}
			if advanced {
				// Every posted batch was answered before the advance was
				// sent, so all posted joins reached the shard first; churn
				// streams may now leave them. (A 429'd join still awaiting
				// its retry can slip past this and draw a 404 on its
				// leave — tolerated, shape/template runs expect strays.)
				g.advanced()
			}
		}
	}
	return st
}

// noteVersion hands a routed reply's X-PD2-Route-Version to the router,
// which refreshes its table when the advertised version is newer.
func (g *genState) noteVersion(resp *http.Response) {
	if g.rt == nil {
		return
	}
	if v, err := strconv.ParseInt(resp.Header.Get("X-PD2-Route-Version"), 10, 64); err == nil && v > 0 {
		g.rt.noteVersion(v)
	}
}

// reroute handles a 307: it refreshes the router (best effort; resolve
// falls back to the cached table) and returns the scheme://host of the
// redirect's Location, or base unchanged when it carries none.
func (g *genState) reroute(resp *http.Response, base string) (string, error) {
	if g.rt != nil {
		_ = g.rt.refresh() // best effort; the next 307 retries it
	}
	u, err := resp.Location()
	if err == http.ErrNoLocation {
		return base, nil
	}
	if err != nil {
		return "", fmt.Errorf("reroute: %w", err)
	}
	return u.Scheme + "://" + u.Host, nil
}

// retryAfter parses a reply's Retry-After hint in whole seconds (0 if
// absent or malformed).
func retryAfter(resp *http.Response) time.Duration {
	n, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || n < 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}

// appendBatch encodes n reweight commands as a JSON array. Weights move
// between 1/64 and 1/32 — always within the admitted budget, so a 409
// under load is a server-side bug. The names are embedded without JSON
// escaping, which run's plainPrefix check makes safe.
func appendBatch(b []byte, prefix string, shard, n, tasks int, rng *stats.RNG) []byte {
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"reweight","task":"`...)
		b = append(b, prefix...)
		b = strconv.AppendInt(b, int64(shard), 10)
		b = append(b, '_')
		b = strconv.AppendInt(b, int64(rng.Bounded(tasks)), 10)
		b = append(b, `","weight":"`...)
		b = strconv.AppendInt(b, int64(1+rng.Bounded(2)), 10)
		b = append(b, `/64"}`...)
	}
	return append(b, ']')
}

// auditReport aggregates the per-shard post-run audit. admissionClean
// means no property-(W) rejections anywhere; healthy means zero failed
// applies and zero lag-bound violations — the invariant every
// pathological template must leave intact. The anomaly fields sum the
// per-shard spike counters and take the maximum deferred-join depth.
type auditReport struct {
	admissionClean     bool
	healthy            bool
	deferredJoinPeak   int64
	rejectSpikes       int64
	driftExcursions    int64
	backpressureSpikes int64
}

// audit fetches every shard's status, prints the per-shard line, and
// folds the results into one report.
func audit(client *http.Client, resolve resolver, shards int) (auditReport, error) {
	rep := auditReport{admissionClean: true, healthy: true}
	for s := 0; s < shards; s++ {
		base, err := resolve(s)
		if err != nil {
			return rep, err
		}
		var st struct {
			Now                int64 `json:"now"`
			RejectedW          int64 `json:"rejected_weight"`
			FailedApplies      int64 `json:"failed_applies"`
			Violations         int64 `json:"violations"`
			Accepted           int64 `json:"accepted"`
			Applied            int64 `json:"applied"`
			DeferredJoinPeak   int64 `json:"deferred_join_peak"`
			RejectSpikes       int64 `json:"anomaly_reject_spikes"`
			DriftExcursions    int64 `json:"anomaly_drift_excursions"`
			BackpressureSpikes int64 `json:"anomaly_backpressure_spikes"`
		}
		if err := getStatus(client, base, s, &st); err != nil {
			return rep, err
		}
		fmt.Printf("pd2load: shard %d: now=%d accepted=%d applied=%d rejectedW=%d failed=%d violations=%d\n",
			s, st.Now, st.Accepted, st.Applied, st.RejectedW, st.FailedApplies, st.Violations)
		if st.RejectedW != 0 {
			rep.admissionClean = false
		}
		if st.FailedApplies != 0 || st.Violations != 0 {
			rep.healthy = false
		}
		if st.DeferredJoinPeak > rep.deferredJoinPeak {
			rep.deferredJoinPeak = st.DeferredJoinPeak
		}
		rep.rejectSpikes += st.RejectSpikes
		rep.driftExcursions += st.DriftExcursions
		rep.backpressureSpikes += st.BackpressureSpikes
	}
	return rep, nil
}

// getStatus decodes shard s's status reply into v.
func getStatus(client *http.Client, base string, s int, v any) error {
	if err := getJSON(client, fmt.Sprintf("%s/v1/shards/%d", base, s), v); err != nil {
		return fmt.Errorf("shard %d status: %w", s, err)
	}
	return nil
}

// post marshals v and POSTs it, returning status and body.
func post(client *http.Client, url string, v any) (int, []byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, body, err := send(client, http.MethodPost, url, data, true)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// getJSON GETs url, following redirects, and decodes a 200 reply into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, body, err := send(client, http.MethodGet, url, nil, true)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%d: %s", resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// maxFollow bounds the redirects send follows, as a default
// http.Client does.
const maxFollow = 10

// send issues one request and returns the reply with its body read in
// full and closed, so keep-alive reuses the connection. The client hands
// 307s back unfollowed; with follow set, send chases their Location
// itself, up to maxFollow hops — what the setup, drain, audit and verify
// helpers need when a shard moves under them.
func send(client *http.Client, method, url string, body []byte, follow bool) (*http.Response, []byte, error) {
	for hops := 0; ; hops++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		reply, rerr := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return nil, nil, rerr
		}
		if !follow || resp.StatusCode != http.StatusTemporaryRedirect || hops >= maxFollow {
			return resp, reply, nil
		}
		loc, err := resp.Location()
		if err != nil {
			return resp, reply, nil
		}
		url = loc.String()
	}
}
