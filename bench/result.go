package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// A Metric is one named, unit-carrying number.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// Result is a run's outcome: the gated metrics that go on the JSON
// line, ungated extras that are only printed, and the correctness
// verdict with its reasons.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	Extras    []Metric
	Errors    []string
}

// Units of the gated metrics, in print order. BENCHMARK.json carries
// the same names with their bounds (TestBenchmarkJSONMatches).
var (
	endToEndUnits = []Metric{
		{Name: "setup_s", Unit: "s"},
		{Name: "cmds_per_s_rel", Unit: "ratio"},
		{Name: "p50_rel", Unit: "ratio"},
		{Name: "read_p50_rel", Unit: "ratio"},
		{Name: "drift_mean", Unit: "quanta"},
		{Name: "heap_mb", Unit: "MiB"},
	}
	perLayerUnits = []Metric{
		{Name: "http.transport_us", Unit: "us"},
		{Name: "serve.cmd_us", Unit: "us"},
		{Name: "serve.cmd_ns_per_cmd", Unit: "ns"},
		{Name: "serve.read_us", Unit: "us"},
		{Name: "serve.advance_us", Unit: "us"},
		{Name: "cluster.route_us", Unit: "us"},
		{Name: "cluster.route_self_us", Unit: "us"},
		{Name: "cluster.push_us", Unit: "us"},
		{Name: "cluster.follower_us", Unit: "us"},
		{Name: "cluster.pushes_per_write", Unit: "ratio"},
		{Name: "cluster.push_bytes_per_write", Unit: "B"},
		{Name: "cluster.push_retry_ratio", Unit: "ratio"},
		{Name: "core.step_us", Unit: "us"},
		{Name: "core.digest_us", Unit: "us"},
		{Name: "core.replay_ns_per_cmd", Unit: "ns"},
		{Name: "serve.tail_us", Unit: "us"},
		{Name: "cluster.tail_encode_us", Unit: "us"},
		{Name: "cluster.tail_bytes", Unit: "B"},
		{Name: "cluster.replica_apply_us", Unit: "us"},
		{Name: "restore.decode_ms", Unit: "ms"},
		{Name: "restore.replay_ms", Unit: "ms"},
		{Name: "serve.log_len", Unit: "count"},
		{Name: "gc.cycles", Unit: "count"},
		{Name: "gc.pause_ms", Unit: "ms"},
		{Name: "heap.inuse_mb", Unit: "MiB"},
		{Name: "gen.late_p99_ms", Unit: "ms"},
		{Name: "trace.overhead_pct", Unit: "%"},
	}
)

// withValues fills a unit table from computed values.
func withValues(units []Metric, vals map[string]float64) []Metric {
	out := make([]Metric, len(units))
	for i, u := range units {
		out[i] = Metric{Name: u.Name, Unit: u.Unit, Value: vals[u.Name]}
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func (r *Result) verdict(ms ...*measurement) {
	r.Correct = true
	for _, m := range ms {
		r.Attempted += m.attempted
		r.Failed += m.failed
		for _, err := range m.errs {
			r.Errors = append(r.Errors, err.Error())
		}
	}
	if r.Failed > 0 || len(r.Errors) > 0 {
		r.Correct = false
	}
}

// endToEnd reports an untraced run: what a user of the system sees.
// The load timings are gated as ratios to the bare-HTTP reference
// (reference.go), each side's samples pooled over the rounds; the
// system's own values are printed beside them.
func endToEnd(w *Workload, m *measurement) *Result {
	sys, ref := &m.sys, &m.ref
	p50 := func(h *Hist) float64 { return float64(h.Quantile(0.5)) }
	r := &Result{Metrics: withValues(endToEndUnits, map[string]float64{
		"setup_s":        median(seconds(m.setup)),
		"cmds_per_s_rel": ratio(sys.rate(), ref.rate()),
		"p50_rel":        ratio(p50(&sys.write), p50(&ref.write)),
		"read_p50_rel":   ratio(p50(&sys.read), p50(&ref.read)),
		"drift_mean":     m.final.meanDrift,
		"heap_mb":        m.mem.liveHeapMB,
	})}
	for _, s := range []struct {
		prefix string
		s      *samples
	}{{"", sys}, {"ref.", ref}} {
		r.Extras = append(r.Extras,
			Metric{s.prefix + "cmds_per_s", "cmd/s", s.s.rate()},
			Metric{s.prefix + "p50_ms", "ms", ms(s.s.write.Quantile(0.5))},
			Metric{s.prefix + "p90_ms", "ms", ms(s.s.write.Quantile(0.9))},
			Metric{s.prefix + "read_p50_ms", "ms", ms(s.s.read.Quantile(0.5))},
		)
	}
	// The tail, too noisy to gate even as a ratio (a write that waits
	// behind an advance lands in it), with p99.9 where ten samples lie
	// beyond it.
	r.Extras = append(r.Extras,
		Metric{"write_samples", "count", float64(sys.write.Count())},
		Metric{"read_samples", "count", float64(sys.read.Count())},
		Metric{"p99_ms", "ms", ms(sys.write.Quantile(0.99))},
		Metric{"read_p90_ms", "ms", ms(sys.read.Quantile(0.9))},
		Metric{"read_p99_ms", "ms", ms(sys.read.Quantile(0.99))},
	)
	for _, p := range []struct {
		name string
		h    *Hist
	}{{"p999_ms", &sys.write}, {"read_p999_ms", &sys.read}} {
		if p.h.Beyond(0.999) >= 10 {
			r.Extras = append(r.Extras, Metric{p.name, "ms", ms(p.h.Quantile(0.999))})
		}
	}
	r.Extras = append(r.Extras,
		Metric{"max_ms", "ms", ms(sys.write.Max())},
		Metric{"max_drift", "quanta", m.final.maxDrift},
		Metric{"rss_mb", "MiB", m.mem.peakRSSMB},
		Metric{"gen.late_p99_ms", "ms", ms(sys.late.Quantile(0.99))},
		Metric{"serve.log_len", "count", float64(m.final.logLen)},
		Metric{"gomaxprocs", "count", float64(runtime.GOMAXPROCS(0))},
	)
	// Restart time tracks history, but the exec of a daemon moved by up
	// to a third from run to run on a shared host, too much to gate.
	r.Extras = append(r.Extras,
		Metric{"restore_s", "s", median(seconds(m.restore))},
		Metric{"setups", "count", float64(len(m.setup))},
		Metric{"setup.min_s", "s", quantile(seconds(m.setup), 0)},
		Metric{"setup.max_s", "s", quantile(seconds(m.setup), 1)},
		Metric{"restores", "count", float64(len(m.restore))},
		Metric{"restore.min_s", "s", quantile(seconds(m.restore), 0)},
		Metric{"restore.max_s", "s", quantile(seconds(m.restore), 1)},
	)
	r.verdict(m)
	return r
}

// perLayer reports a traced run: spans from the in-process pass, the
// public-function probes, and the daemons' runtime statistics from the
// untraced pass.
func perLayer(w *Workload, base, traced *measurement, tr *tracer, mh *memHost) *Result {
	vals := layerSpans(w, tr.spans)
	for k, v := range traced.probes {
		vals[k] = v
	}
	vals["restore.decode_ms"] = float64(mh.decode) / 1e6
	vals["restore.replay_ms"] = float64(mh.replay) / 1e6
	vals["serve.log_len"] = float64(traced.final.logLen)
	vals["gc.cycles"] = base.mem.gcCycles
	vals["gc.pause_ms"] = base.mem.gcPauseMS
	vals["heap.inuse_mb"] = base.mem.heapInuseMB
	vals["gen.late_p99_ms"] = ms(base.sys.late.Quantile(0.99))
	untracedP50, tracedP50 := ms(base.sys.write.Quantile(0.5)), ms(traced.sys.write.Quantile(0.5))
	if untracedP50 > 0 {
		vals["trace.overhead_pct"] = (tracedP50 - untracedP50) / untracedP50 * 100
	}
	r := &Result{Metrics: withValues(perLayerUnits, vals)}
	r.Extras = append(r.Extras,
		Metric{"untraced.p50_ms", "ms", untracedP50},
		Metric{"traced.p50_ms", "ms", tracedP50},
		Metric{"traced.cmds_per_s", "cmd/s", traced.sys.rate()},
	)
	r.verdict(base, traced)
	return r
}

// layerSpans derives the span-based per-layer metrics. Times describe
// an open-loop request, the path p50_ms measures; the per-write push
// counts cover the whole load, where concurrent writers can share a
// push. A layer the workload never enters (the cluster on node
// workloads; the serve handler, which a cluster node calls internally,
// on cluster-write) reports 0.
func layerSpans(w *Workload, spans []Span) map[string]float64 {
	open := make(map[string][]*Span)
	loaded := make(map[string]int)       // span count per name over both phases
	server := make(map[uint64]*Span)     // client-facing handler span by request
	pushesOf := make(map[uint64][]*Span) // push spans by route span
	var pushes []*Span
	for i := range spans {
		s := &spans[i]
		if s.Phase == phaseOther {
			continue
		}
		loaded[s.Name]++
		if s.Name == "cluster.push" {
			pushes = append(pushes, s)
		}
		if s.Phase != phaseOpen {
			continue
		}
		open[s.Name] = append(open[s.Name], s)
		switch s.Name {
		case "serve.cmd", "cluster.route.cmd":
			server[s.Req] = s
		case "cluster.push":
			pushesOf[s.Parent] = append(pushesOf[s.Parent], s)
		}
	}
	p50us := func(name string) float64 {
		var h Hist
		for _, s := range open[name] {
			h.Record(s.dur())
		}
		return float64(h.Quantile(0.5)) / 1e3
	}
	vals := map[string]float64{
		"serve.cmd_us":        p50us("serve.cmd"),
		"serve.read_us":       p50us("serve.read"),
		"serve.advance_us":    p50us("serve.advance"),
		"cluster.route_us":    p50us("cluster.route.cmd"),
		"cluster.push_us":     p50us("cluster.push"),
		"cluster.follower_us": p50us("cluster.follower"),
	}
	vals["serve.cmd_ns_per_cmd"] = vals["serve.cmd_us"] * 1e3 / float64(w.Batch)

	var transport, self Hist
	for _, c := range open["client.cmd"] {
		if s, ok := server[c.Req]; ok {
			transport.Record(c.dur() - s.dur())
		}
	}
	for _, s := range open["cluster.route.cmd"] {
		self.Record(selfTime(s, pushesOf[s.ID]))
	}
	vals["http.transport_us"] = float64(transport.Quantile(0.5)) / 1e3
	vals["cluster.route_self_us"] = float64(self.Quantile(0.5)) / 1e3

	if writes := loaded["cluster.route.cmd"] + loaded["cluster.route.advance"]; writes > 0 {
		bytes, retries := 0, 0
		for _, p := range pushes {
			bytes += p.N
			if p.Status != 200 {
				retries++
			}
		}
		vals["cluster.pushes_per_write"] = float64(len(pushes)) / float64(writes)
		vals["cluster.push_bytes_per_write"] = float64(bytes) / float64(writes)
		if len(pushes) > 0 {
			vals["cluster.push_retry_ratio"] = float64(retries) / float64(len(pushes))
		}
	}
	return vals
}

// jsonLine is the result line: exactly these four keys.
type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// JSON renders the result line.
func (r *Result) JSON() ([]byte, error) {
	l := jsonLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]jsonMetric)}
	for _, m := range r.Metrics {
		l.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(l)
}

// Print writes every metric with its unit, the extras and the verdict,
// then the JSON line last.
func (r *Result) Print(w io.Writer) error {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range r.Extras {
		fmt.Fprintf(w, "  (ungated) %-19s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "check failed: %s\n", e)
	}
	line, err := r.JSON()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
