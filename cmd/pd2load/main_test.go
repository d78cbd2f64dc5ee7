package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/stats"
)

// TestSplitBudget pins the remainder distribution: the parts always sum
// to the request total and never differ by more than one.
func TestSplitBudget(t *testing.T) {
	cases := []struct{ requests, workers int }{
		{0, 1}, {0, 8}, {1, 1}, {1, 8}, {5, 8}, {8, 5},
		{100, 7}, {4000, 3}, {50000, 8}, {50001, 8},
	}
	for _, tc := range cases {
		parts := splitBudget(tc.requests, tc.workers)
		if len(parts) != tc.workers {
			t.Fatalf("split(%d,%d): %d parts", tc.requests, tc.workers, len(parts))
		}
		sum, lo, hi := 0, parts[0], parts[0]
		for _, p := range parts {
			sum += p
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		if sum != tc.requests {
			t.Errorf("split(%d,%d) sums to %d, dropping %d commands",
				tc.requests, tc.workers, sum, tc.requests-sum)
		}
		if hi-lo > 1 {
			t.Errorf("split(%d,%d) is uneven: min %d, max %d", tc.requests, tc.workers, lo, hi)
		}
	}
}

// TestBackoffDelay pins the retry schedule: exponential from 1ms,
// floored at the Retry-After hint, capped at maxBackoff, jitter <= 25%.
func TestBackoffDelay(t *testing.T) {
	rng := stats.NewStream(1, 0)
	for attempt := 0; attempt < 12; attempt++ {
		base := time.Millisecond << attempt
		if attempt > 10 {
			base = time.Millisecond << 10
		}
		if base > maxBackoff {
			base = maxBackoff
		}
		d := backoffDelay(attempt, 0, rng)
		if d < base || d > base+base/4 {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, base, base+base/4)
		}
	}
	// A Retry-After hint floors the delay but stays capped.
	if d := backoffDelay(0, 5*time.Millisecond, rng); d < 5*time.Millisecond || d > 5*time.Millisecond*5/4 {
		t.Errorf("hinted delay %v outside [5ms, 6.25ms]", d)
	}
	if d := backoffDelay(0, 3*time.Second, rng); d < maxBackoff || d > maxBackoff*5/4 {
		t.Errorf("capped delay %v outside [%v, %v]", d, maxBackoff, maxBackoff*5/4)
	}
	// Determinism: the same (seed, worker) stream yields the same schedule.
	a, b := stats.NewStream(7, 3), stats.NewStream(7, 3)
	for attempt := 0; attempt < 8; attempt++ {
		if da, db := backoffDelay(attempt, 0, a), backoffDelay(attempt, 0, b); da != db {
			t.Fatalf("attempt %d: %v != %v from identical streams", attempt, da, db)
		}
	}
}

// TestRouterResolveRefresh pins the routing-table cache: waitReady
// blocks for the first table, resolve maps a shard to its primary's
// base, noteVersion refetches only when a response advertises a newer
// version, and a stale advertisement can never roll the table back.
func TestRouterResolveRefresh(t *testing.T) {
	var mu sync.Mutex
	version := int64(1)
	base := "http://a1.test"
	fetches := 0
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/route" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		fetches++
		_ = json.NewEncoder(w).Encode(routeTable{
			Version: version,
			Shards:  []routeShard{{Shard: 0, Primary: "a"}},
			Nodes:   map[string]string{"a": base},
		})
	}))
	defer coord.Close()

	rt := newRouter(coord.URL, coord.Client())
	if err := rt.waitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, err := rt.resolve(0); err != nil || got != "http://a1.test" {
		t.Fatalf("resolve(0) = %q, %v", got, err)
	}
	if _, err := rt.resolve(7); err == nil {
		t.Error("resolve outside the table succeeded")
	}
	mu.Lock()
	before := fetches
	mu.Unlock()
	rt.noteVersion(1) // matches the cache: no refetch
	mu.Lock()
	after := fetches
	version, base = 2, "http://a2.test"
	mu.Unlock()
	if after != before {
		t.Errorf("noteVersion(same) refetched: %d -> %d", before, after)
	}
	rt.noteVersion(2) // newer: refetch and adopt
	if got, err := rt.resolve(0); err != nil || got != "http://a2.test" {
		t.Fatalf("after refresh resolve(0) = %q, %v", got, err)
	}
	mu.Lock()
	version, base = 1, "http://a1.test" // coordinator "rolls back"
	mu.Unlock()
	rt.noteVersion(1) // older: ignored
	_ = rt.refresh()  // even an explicit refresh keeps the newer table
	if got, _ := rt.resolve(0); got != "http://a2.test" {
		t.Errorf("stale table rolled the cache back to %q", got)
	}
}

// TestNoteReroute pins the consecutive-redirect cap: the default is
// maxReroutes, any non-redirect response resets the streak.
func TestNoteReroute(t *testing.T) {
	g := &genState{}
	for i := 0; i < maxReroutes; i++ {
		if g.noteReroute() {
			t.Fatalf("cap fired after %d reroutes, want %d tolerated", i+1, maxReroutes)
		}
	}
	if !g.noteReroute() {
		t.Fatalf("cap did not fire after %d consecutive reroutes", maxReroutes+1)
	}
	g.reroutes = 0 // what drive does on any non-307 response
	if g.noteReroute() {
		t.Error("streak did not reset")
	}
	g2 := &genState{rerouteCap: 2}
	if g2.noteReroute() || g2.noteReroute() {
		t.Fatal("lowered cap fired early")
	}
	if !g2.noteReroute() {
		t.Error("lowered cap never fired")
	}
}

// TestDriveFollowsReroute points a worker at a server that answers 307
// with a Location on the real daemon: the batch must be requeued
// through the backoff path, the worker retargeted, and every
// command still delivered exactly once. With a router attached, the
// redirect must also refresh the cached table.
func TestDriveFollowsReroute(t *testing.T) {
	daemon := startTestDaemon(t, 1, 2)
	client := &http.Client{Timeout: 5 * time.Second}
	if err := setup(client, fixedResolver(daemon), "RR", 1, 4); err != nil {
		t.Fatal(err)
	}
	var redirects int32
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&redirects, 1)
		w.Header().Set("Location", daemon+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer old.Close()

	// Coordinator: the first table (v1) points at the stale server, every
	// fetch after it at the daemon — exactly what a live migration does.
	var mu sync.Mutex
	served := 0
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		served++
		tab := routeTable{Version: 1, Shards: []routeShard{{Shard: 0, Primary: "n"}},
			Nodes: map[string]string{"n": old.URL}}
		if served > 1 {
			tab.Version, tab.Nodes = 2, map[string]string{"n": daemon}
		}
		_ = json.NewEncoder(w).Encode(tab)
	}))
	defer coord.Close()
	rt := newRouter(coord.URL, coord.Client())
	if err := rt.waitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	g := &genState{kind: genUniform, prefix: "RR", shards: 1, tasks: 4,
		rng: stats.NewStream(1, 0), rt: rt}
	st := g.drive(newClient(1), old.URL, 32, 8, 0)
	if st.sent != 32 || st.transportErrs != 0 || st.serverErrors != 0 {
		t.Fatalf("rerouted run not clean: %+v", st)
	}
	if n := atomic.LoadInt32(&redirects); n < 1 {
		t.Error("stale server saw no requests")
	}
	if st.retries < 1 {
		t.Errorf("307s drew no retries, got %d", st.retries)
	}
	if got, _ := rt.resolve(0); got != daemon {
		t.Errorf("redirect did not refresh the table: resolve(0) = %q", got)
	}
}

// TestDriveRerouteCap aims a worker at a redirect loop: it must give up
// with a transport error after the cap instead of spinning forever.
func TestDriveRerouteCap(t *testing.T) {
	var self *httptest.Server
	self = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", self.URL+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer self.Close()
	g := &genState{kind: genUniform, prefix: "RC", shards: 1, tasks: 4,
		rng: stats.NewStream(1, 0), rerouteCap: 3}
	st := g.drive(newClient(1), self.URL, 8, 8, 0)
	if st.transportErrs != 1 {
		t.Fatalf("redirect loop did not fail the worker: %+v", st)
	}
	if st.sent != 0 {
		t.Errorf("redirect loop claimed %d sent commands", st.sent)
	}
	if st.retries != 3 || g.reroutes != 4 {
		t.Errorf("got %d retries, %d reroutes; want 3 retried + the 4th tripping the cap", st.retries, g.reroutes)
	}
}

// TestDriveRetriesBackpressure puts a front in front of a real daemon
// that refuses the first k command posts — 429 for a single daemon, 503
// for a routed worker (cluster backpressure) — then forwards everything.
// The worker must retry each refused batch through the backoff path and
// still deliver exactly its budget.
func TestDriveRetriesBackpressure(t *testing.T) {
	const k = 3
	for _, tc := range []struct {
		name   string
		code   int
		routed bool
	}{
		{"429", http.StatusTooManyRequests, false},
		{"routed-503", http.StatusServiceUnavailable, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			daemon := startTestDaemon(t, 1, 2)
			client := newClient(1)
			if err := setup(client, fixedResolver(daemon), "BP", 1, 4); err != nil {
				t.Fatal(err)
			}
			target, err := url.Parse(daemon)
			if err != nil {
				t.Fatal(err)
			}
			proxy := httputil.NewSingleHostReverseProxy(target)
			var refused atomic.Int32
			front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/commands") && refused.Add(1) <= k {
					w.Header().Set("Retry-After", "0")
					w.WriteHeader(tc.code)
					return
				}
				proxy.ServeHTTP(w, r)
			}))
			defer front.Close()

			g := &genState{kind: genUniform, prefix: "BP", shards: 1, tasks: 4, rng: stats.NewStream(1, 0)}
			if tc.routed {
				coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					_ = json.NewEncoder(w).Encode(routeTable{Version: 1,
						Shards: []routeShard{{Shard: 0, Primary: "n"}}, Nodes: map[string]string{"n": front.URL}})
				}))
				defer coord.Close()
				g.rt = newRouter(coord.URL, client)
				if err := g.rt.waitReady(2 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
			st := g.drive(client, front.URL, 40, 8, 4)
			if st.sent != 40 {
				t.Errorf("delivered %d commands, want exactly 40", st.sent)
			}
			if st.retries != k || st.backoff <= 0 {
				t.Errorf("got %d retries over %v backoff, want %d retries and a positive backoff", st.retries, st.backoff, k)
			}
			if st.rejected != 0 || st.serverErrors != 0 || st.transportErrs != 0 {
				t.Errorf("not clean: %+v", st)
			}
		})
	}
}

// TestExactDeliveryEndToEnd runs the full generator against an
// in-process pd2d and checks the -requests budget is delivered exactly,
// including when workers do not divide requests and when some workers
// get no budget at all.
func TestExactDeliveryEndToEnd(t *testing.T) {
	srv, err := serve.New(serve.Options{Shards: 4, Config: serve.ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Stop()
	}()

	cases := []struct{ requests, workers, batch int }{
		{1003, 7, 8}, // 1003 = 7*143 + 2: two workers carry one extra
		{37, 5, 8},   // the last batch of every worker is a partial one
		{5, 8, 3},    // more workers than requests: some sit idle
	}
	for i, tc := range cases {
		prefix := fmt.Sprintf("E%d", i)
		tot, err := run(config{
			base: ts.URL, shards: 4, workers: tc.workers, requests: tc.requests,
			batch: tc.batch, tasks: 4, advEvery: 16,
			seed: 1, prefix: prefix,
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if tot.sent != int64(tc.requests) {
			t.Errorf("case %d: delivered %d commands, want exactly %d", i, tot.sent, tc.requests)
		}
		if tot.rejected != 0 || tot.serverErrors != 0 || tot.transportErrs != 0 {
			t.Errorf("case %d: not clean: %+v", i, tot)
		}
	}
}

// TestStatsLine pins the end-of-run summary formats so -strict audits
// and the smoke scripts can grep them.
func TestStatsLine(t *testing.T) {
	tot := workerStats{
		sent: 1200, posts: 150, retries: 3, rejected: 40,
		serverErrors: 1, transportErrs: 2, backoff: 250 * time.Millisecond,
	}
	got := statsLine(tot, 2*time.Second)
	want := "pd2load: 1200 commands in 2.00s = 600 commands/s (150 posts, 3 retries, 40 rejected, 1 5xx, 2 transport errors, 0.250s backoff)"
	if got != want {
		t.Errorf("statsLine:\n got %q\nwant %q", got, want)
	}
	rep := auditReport{deferredJoinPeak: 5, rejectSpikes: 7, driftExcursions: 2, backpressureSpikes: 1}
	got = anomalyLine(tot, rep)
	want = "pd2load: anomalies: 3 429s, 0.250s backoff, max deferred-join depth 5, reject spikes 7, drift excursions 2, backpressure spikes 1"
	if got != want {
		t.Errorf("anomalyLine:\n got %q\nwant %q", got, want)
	}
	// Zero elapsed must not divide by zero.
	if got := statsLine(workerStats{}, 0); got == "" {
		t.Error("empty stats line")
	}
}

// startTestDaemon brings up an in-process serve instance for end-to-end
// runs.
func startTestDaemon(t *testing.T, shards, m int) string {
	t.Helper()
	srv, err := serve.New(serve.Options{Shards: shards, Config: serve.ShardConfig{M: m}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Stop()
	})
	return ts.URL
}

// TestTemplateRunsEndToEnd drives each pathological template through
// the full generator against an in-process daemon. Every run must
// finish (rejected commands count against the budget) and the
// rejection-expecting templates must actually provoke rejections.
func TestTemplateRunsEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		template     string
		wantRejected bool
	}{
		{"reweight-storm", false},
		{"join-leave-churn", false}, // tolerated, but a clean run is the norm
		{"admission-camp", true},
		{"heavy-flood", true},
	} {
		t.Run(tc.template, func(t *testing.T) {
			base := startTestDaemon(t, 2, 2)
			tot, err := run(config{
				base: base, shards: 2, workers: 2, requests: 400,
				batch: 8, tasks: 4, advEvery: 8,
				seed: 1, prefix: "T", template: tc.template,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tot.sent+tot.rejected < 400 {
				t.Errorf("delivered %d+%d commands, want >= 400", tot.sent, tot.rejected)
			}
			if tc.wantRejected && tot.rejected == 0 {
				t.Errorf("%s drew no rejections", tc.template)
			}
			if tot.serverErrors != 0 || tot.transportErrs != 0 {
				t.Errorf("unhealthy run: %+v", tot)
			}
		})
	}
}

// TestShapeRunEndToEnd drives a phase-modulated shape, including an
// idle phase, through the full generator.
func TestShapeRunEndToEnd(t *testing.T) {
	base := startTestDaemon(t, 2, 2)
	tot, err := run(config{
		base: base, shards: 2, workers: 2, requests: 300,
		batch: 8, tasks: 4, advEvery: 8,
		seed: 1, prefix: "S", shape: "idle=2:0:1:0,busy=4:1.5:4:0.2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tot.sent+tot.rejected < 300 {
		t.Errorf("delivered %d+%d commands, want >= 300", tot.sent, tot.rejected)
	}
	if tot.serverErrors != 0 || tot.transportErrs != 0 {
		t.Errorf("unhealthy run: %+v", tot)
	}
}

// TestRecordReplayThroughCLI runs generate→record against one daemon
// and replay against a fresh one, end to end through run().
func TestRecordReplayThroughCLI(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.trace")
	base := startTestDaemon(t, 2, 2)
	if _, err := run(config{
		base: base, shards: 2, workers: 2, requests: 200,
		batch: 8, tasks: 4, advEvery: 8,
		seed: 1, prefix: "R", record: tracePath,
	}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not recorded: %v", err)
	}
	fresh := startTestDaemon(t, 2, 2)
	if _, err := run(config{base: fresh, replay: tracePath}); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestVerifyDigests drives a load, then checks -verify replays every
// shard's log to a matching digest.
func TestVerifyDigests(t *testing.T) {
	base := startTestDaemon(t, 2, 2)
	if _, err := run(config{
		base: base, shards: 2, workers: 2, requests: 100,
		batch: 8, tasks: 4, advEvery: 8, seed: 1, prefix: "V",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := run(config{base: base, shards: 2, verify: true}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// hload lets an httptest server exist (so its URL is known) before the
// cluster node that handles its requests does.
type hload struct{ h http.Handler }

// startTestCluster brings up an in-process coordinator plus n cluster
// nodes, registers them, and returns the coordinator's base URL once
// the routing table is placed.
func startTestCluster(t *testing.T, n, shards int) string {
	t.Helper()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Shards: shards, Replicas: 1, MinNodes: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsC := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		tsC.Close()
		coord.Stop()
	})
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Options{Shards: shards, Config: serve.ShardConfig{M: 2}})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		var h atomic.Value
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			v := h.Load()
			if v == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			v.(hload).h.ServeHTTP(w, r)
		}))
		cs := serve.NewClusterStats(shards)
		srv.AttachClusterStats(cs)
		node, err := cluster.NewNode(cluster.NodeOptions{
			ID: fmt.Sprintf("n%d", i), Base: ts.URL, Server: srv, Stats: cs,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.Store(hload{node.Handler()})
		node.Start(50 * time.Millisecond)
		if err := node.Register(tsC.URL); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			node.Stop()
			ts.Close()
			srv.Stop()
		})
	}
	if coord.Table() == nil {
		t.Fatal("coordinator placed no table after all nodes registered")
	}
	return tsC.URL
}

// TestRouteModeEndToEnd runs the full generator in -route mode against
// an in-process cluster (two nodes, every shard replicated), then
// verifies each shard's digest through the router. Exercises resolver
// setup, synchronous replication on the ack path, and the routed
// drain/audit helpers.
func TestRouteModeEndToEnd(t *testing.T) {
	coordURL := startTestCluster(t, 2, 2)
	tot, err := run(config{
		route: coordURL, shards: 2, workers: 2, requests: 200,
		batch: 8, tasks: 4, advEvery: 8, seed: 1, prefix: "CL",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tot.sent != 200 {
		t.Errorf("delivered %d commands, want exactly 200", tot.sent)
	}
	if tot.rejected != 0 || tot.serverErrors != 0 || tot.transportErrs != 0 {
		t.Errorf("routed run not clean: %+v", tot)
	}
	if _, err := run(config{route: coordURL, shards: 2, verify: true}); err != nil {
		t.Fatalf("routed verify: %v", err)
	}
}

// TestModeFlagValidation pins the mutual exclusions.
func TestModeFlagValidation(t *testing.T) {
	if _, err := run(config{
		base: "http://127.0.0.1:1", shards: 1, workers: 1, requests: 1, batch: 1,
		tasks: 1, prefix: "L", shape: "diurnal", template: "reweight-storm",
	}); err == nil {
		t.Error("-shape with -template accepted")
	}
	if _, err := run(config{base: "http://127.0.0.1:1", replay: "/nonexistent/x.trace"}); err == nil {
		t.Error("replay of a missing file succeeded")
	}
	if _, err := run(config{route: "http://127.0.0.1:1", replay: "x.trace"}); err == nil {
		t.Error("-route with -replay accepted")
	}
	if _, err := run(config{route: "http://127.0.0.1:1", record: "x.trace"}); err == nil {
		t.Error("-route with -record accepted")
	}
	if _, err := run(config{
		base: "http://127.0.0.1:1", shards: 1, workers: 1, requests: 1, batch: 1,
		tasks: 1, prefix: "L", shape: "idle=4:0:1:0",
	}); err == nil {
		t.Error("an all-idle shape should be rejected up front")
	}
}

// TestRunRefusesUnplainPrefix requires run to refuse, before it sends a
// single request, a -prefix the body builders would embed unescaped: a
// '"' makes the body invalid JSON or a different command.
func TestRunRefusesUnplainPrefix(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no request expected", http.StatusTeapot)
	}))
	defer ts.Close()
	for _, prefix := range []string{`a"b`, `x","op":"leave","task":"x`, `a\b`, "", "a b", "é"} {
		for _, mode := range []config{{}, {template: "reweight-storm"}, {shape: "diurnal"}} {
			mode.base, mode.shards, mode.workers, mode.requests = ts.URL, 1, 1, 8
			mode.batch, mode.tasks, mode.seed, mode.prefix = 8, 4, 1, prefix
			if _, err := run(mode); err == nil {
				t.Errorf("prefix %q (template %q, shape %q) accepted", prefix, mode.template, mode.shape)
			}
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the server saw %d requests, want none", n)
	}
	if !plainPrefix("L-0_x.y") {
		t.Error("a plain prefix was refused")
	}
}
