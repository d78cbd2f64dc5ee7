package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Config is one benchmark run.
type Config struct {
	Workload *Workload
	Seed     uint64
	Duration time.Duration // open-loop phase length
	// Trace repeats the run in process with every layer wrapped in spans
	// and reports the per-layer metrics instead of the end-to-end ones.
	Trace bool
	// WorkDir receives snapshots, daemon logs and the span file.
	WorkDir string
	// Bin holds the pd2d and pd2cluster binaries; empty hosts the
	// untraced run in process too (the smoke test does).
	Bin string
	Log io.Writer // progress
}

// The host's speed drifts by tens of percent from one minute to the
// next, so the load timings are ratios to the bare-HTTP reference
// (reference.go) driven in the same rounds, and the others medians of
// repetitions:
//   - rounds, each an open-loop window and a capacity chunk on the
//     system and the same on the reference, the two sides taking turns
//     to go first; each side's samples are pooled over the rounds;
//   - set-ups (the last carries the load) and restarts from the final
//     snapshots, repeated until together they took a sixteenth of the
//     run length (1s in a 16s run), up to maxReps, and at least
//     minSetups times and once respectively: set-up time is gated,
//     restart time (over a second on the long logs) only printed.
const (
	rounds    = 12
	minSetups = 3
	maxReps   = 25
)

// again reports whether a repeated measurement wants another sample:
// always while it has fewer than least, then while its samples
// together took under a sixteenth of the run, up to maxReps.
func (c *Config) again(samples []time.Duration, least int) bool {
	var total time.Duration
	for _, d := range samples {
		total += d
	}
	return len(samples) < maxReps && (len(samples) < least || total < c.Duration/16)
}

// measurement is what one pass over the workload observed.
type measurement struct {
	attempted, failed int // the system's requests; the reference's fail the run
	errs              []error
	setup             []time.Duration
	sys, ref          samples
	final             finalState
	restore           []time.Duration
	mem               memStats
	probes            map[string]float64
}

// samples is what the rounds observed on one side, the system or the
// reference, pooled over the rounds.
type samples struct {
	write, read, late Hist          // open-loop latencies and generator lateness
	cmds              int           // commands acked in the capacity chunks
	busy              time.Duration // the time those chunks took
}

// rate is the capacity over all chunks, cmd/s.
func (s *samples) rate() float64 {
	if s.busy <= 0 {
		return 0
	}
	return float64(s.cmds) / s.busy.Seconds()
}

// ratio is the system's value over the reference's; 0 when the
// reference has none.
func ratio(sys, ref float64) float64 {
	if ref <= 0 {
		return 0
	}
	return sys / ref
}

func (m *measurement) check(err error) {
	if err != nil {
		m.errs = append(m.errs, err)
	}
}

func (m *measurement) add(r *phaseResult) {
	m.attempted += r.attempted
	m.failed += r.failed
	m.check(r.firstErr)
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, "pd2bench %s: "+format+"\n", append([]any{time.Now().Format("15:04:05.000")}, args...)...)
	}
}

// Run measures one workload and returns its result: the end-to-end
// metrics, or with Trace the per-layer ones. Errors that stop the
// measurement are returned; failed correctness checks are recorded in
// the result instead.
func Run(cfg Config) (*Result, error) {
	e2e, layers, err := runBoth(cfg)
	if cfg.Trace {
		return layers, err
	}
	return e2e, err
}

// runBoth does the untraced run and, with Trace, the traced one, and
// reports each.
func runBoth(cfg Config) (e2e, layers *Result, err error) {
	var h host = &memHost{}
	if cfg.Bin != "" {
		h = &procHost{bin: cfg.Bin, logDir: cfg.WorkDir}
	}
	cfg.logf("%s: untraced run, seed %d, open loop %s", cfg.Workload.Name, cfg.Seed, cfg.Duration)
	base, err := measure(&cfg, h, nil)
	if err != nil {
		return nil, nil, err
	}
	e2e = endToEnd(cfg.Workload, base)
	if !cfg.Trace {
		return e2e, nil, nil
	}
	cfg.logf("%s: traced run in process", cfg.Workload.Name)
	tr := newTracer()
	mh := &memHost{tr: tr}
	traced, err := measure(&cfg, mh, tr)
	if err != nil {
		return nil, nil, err
	}
	layers = perLayer(cfg.Workload, base, traced, tr, mh)
	spanFile := filepath.Join(cfg.WorkDir, "trace-"+cfg.Workload.Name+".json")
	if err := tr.writeFile(spanFile, cfg.Workload.Name, cfg.Seed); err != nil {
		return nil, nil, err
	}
	cfg.logf("%s: %d spans written to %s", cfg.Workload.Name, len(tr.spans), spanFile)
	return e2e, layers, nil
}

// measure sets the workload's deployment up, drives the load rounds,
// checks the drained state, and restarts it from snapshots.
func measure(cfg *Config, h host, tr *tracer) (*measurement, error) {
	w := cfg.Workload
	m := &measurement{}
	streams, setupBodies := newStreams(w, cfg.Seed, tr != nil)

	// The snapshot directory is emptied before every set-up; only the
	// deployment that carries the load writes it, at its graceful stop.
	snap := filepath.Join(cfg.WorkDir, "snap")
	defer os.RemoveAll(snap) // snapshots are large; the logs stay
	var d deployment
	for {
		if err := os.RemoveAll(snap); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if d, err = h.start(w, snap); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := populate("http://"+d.addr(), setupBodies); err != nil {
			_ = d.stop(false) // already failing
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setup = append(m.setup, time.Since(t0))
		if !cfg.again(m.setup, minSetups) {
			break
		}
		if err := d.stop(false); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop(false) // error path; the error that got us here is returned
		}
	}()
	refSrv, err := h.reference()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer func() { _ = refSrv.stop(false) }() // error paths; stopping twice is harmless
	refStreams, _ := newStreams(w, cfg.Seed, false)
	sys := &side{m: m, s: &m.sys, tr: tr, streams: streams}
	ref := &side{m: m, s: &m.ref, ref: true, streams: refStreams}
	for _, sd := range []*side{sys, ref} {
		addr := d.addr()
		if sd.ref {
			addr = refSrv.addr()
		}
		sd.conns = make([]*conn, Conns)
		for c := range sd.conns {
			if sd.conns[c], err = dial(addr); err != nil {
				return nil, err
			}
			defer sd.conns[c].close()
		}
	}

	// Half the run's open-loop time goes to each side.
	perRound := w.openRequests(cfg.Duration/2) / rounds
	interval := time.Duration(float64(time.Second) * Conns / float64(w.Rate))
	window := cfg.Duration / (2 * rounds)
	// The reference repeats its capacity chunk until this much time has
	// passed, so that its rate is as steady as the system's.
	refMin := cfg.Duration / 64
	// After each round the system idles this long, so the collection a
	// burst triggers ends before the next window and the latency tail
	// measures steady service.
	settle := cfg.Duration / 120
	cfg.logf("%s: %d rounds of %d requests at %d/s, then %d at %d in flight per connection, on the system and the reference",
		w.Name, rounds, perRound*Conns, w.Rate, w.CapRequests, pipeline)
	// The benchmark's own collector must not run inside a timed window
	// on account of garbage from set-up; the same before the restarts.
	runtime.GC()
	for round := 0; round < rounds; round++ {
		order := []*side{sys, ref}
		if round%2 == 1 {
			order = []*side{ref, sys}
		}
		// The first quarter window warms caches and connections.
		warm := time.Duration(0)
		if round == 0 {
			warm = window / 4
		}
		for _, sd := range order {
			sd.open(perRound, interval, warm)
		}
		for _, sd := range order {
			sd.capacity(w.CapRequests/Conns, refMin)
		}
		time.Sleep(settle)
	}
	m.check(refSrv.stop(false))
	cfg.logf("%s: p50 %.3fms (reference %.3fms), capacity %.0f cmd/s (reference %.0f)", w.Name,
		ms(m.sys.write.Quantile(0.5)), ms(m.ref.write.Quantile(0.5)), m.sys.rate(), m.ref.rate())

	// Drain, check, snapshot, restart.
	url := "http://" + d.addr()
	if err := drain(url, w.Shards); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	m.final, err = checkShards(url, w.Shards)
	m.check(err)
	if m.mem, err = d.memory(); err != nil {
		return nil, fmt.Errorf("memory: %w", err)
	}
	if md, ok := d.(*memDeployment); ok && tr != nil {
		if m.probes, err = probe(md.primary); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	if w.Cluster {
		// Cluster nodes keep no snapshot files; take the primary's.
		if err := fetchSnapshots(url, snap, w.Shards); err != nil {
			return nil, err
		}
	}
	cfg.logf("%s: checked; shutting down", w.Name)
	stopped = true
	m.check(d.stop(true))
	if m.final.shards == nil {
		return m, nil
	}
	runtime.GC()
	for rep := 0; cfg.again(m.restore, 1); rep++ {
		t0 := time.Now()
		rd, err := h.restore(w, snap)
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		err = awaitRestore("http://"+rd.addr(), m.final.shards)
		m.restore = append(m.restore, time.Since(t0))
		if err == nil && rep == 0 {
			var post []shardFinal
			if post, err = restoredState("http://"+rd.addr(), w.Shards); err == nil {
				m.check(checkRestored(m.final.shards, post))
			}
		}
		if serr := rd.stop(false); err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
	}
	cfg.logf("%s: restored %d times, median %.3fs", w.Name, len(m.restore), median(seconds(m.restore)))
	return m, nil
}

// runConns runs fn for every connection concurrently.
func runConns(conns []*conn, fn func(c int) *phaseResult) []*phaseResult {
	out := make([]*phaseResult, len(conns))
	done := make(chan struct{})
	for c := range conns {
		go func(c int) {
			out[c] = fn(c)
			done <- struct{}{}
		}(c)
	}
	for range conns {
		<-done
	}
	return out
}

// populate joins every shard's set-up population and advances one slot
// so the joins apply before the load starts.
func populate(base string, bodies [][]byte) error {
	for s, body := range bodies {
		reply, err := postJSON(fmt.Sprintf("%s/v1/shards/%d/commands", base, s), body)
		if err != nil {
			return err
		}
		if want := bytes.Count(body, []byte(`"op"`)); bytes.Count(reply, queuedMarker) != want {
			return fmt.Errorf("shard %d: set-up joins not all queued: %.300s", s, reply)
		}
		if _, err := postJSON(fmt.Sprintf("%s/v1/shards/%d/advance", base, s), advanceBody); err != nil {
			return err
		}
	}
	return nil
}

// fetchSnapshots saves each shard's snapshot as pd2d would at shutdown.
func fetchSnapshots(base, dir string, shards int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for s := 0; s < shards; s++ {
		resp, err := httpClient.Get(fmt.Sprintf("%s/v1/shards/%d/snapshot", base, s))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != 200 {
			return fmt.Errorf("snapshot of shard %d: %s", s, resp.Status)
		}
		if err := os.WriteFile(snapshotFile(dir, s), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the order statistics around it; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}
