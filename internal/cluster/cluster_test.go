package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// testNode is one in-process cluster member: a serve server wrapped by
// a Node, listening on an httptest server. The handler is swappable so
// the base URL exists before the Node does, and so a "crash" can be
// simulated by closing the listener and a "restart" by standing up a
// fresh node under a new base.
type testNode struct {
	id     string
	srv    *serve.Server
	node   *Node
	ts     *httptest.Server
	h      atomic.Value // hbox
	closed atomic.Bool
}

// hbox gives atomic.Value a single concrete type to store.
type hbox struct{ h http.Handler }

func newTestNode(t *testing.T, id string, shards int) *testNode {
	t.Helper()
	tn := &testNode{id: id}
	tn.h.Store(hbox{http.NotFoundHandler()})
	tn.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tn.h.Load().(hbox).h.ServeHTTP(w, r)
	}))
	srv, err := serve.New(serve.Options{Shards: shards, Config: serve.ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	cs := serve.NewClusterStats(shards)
	srv.AttachClusterStats(cs)
	node, err := NewNode(NodeOptions{
		ID: id, Base: tn.ts.URL, Server: srv, Stats: cs,
		Client:      &http.Client{Timeout: 2 * time.Second},
		GateTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tn.srv, tn.node = srv, node
	tn.h.Store(hbox{node.Handler()})
	return tn
}

// crash kills the listener without draining — in-flight and future
// requests fail at the transport, like a killed process.
func (tn *testNode) crash() {
	if tn.closed.Swap(true) {
		return
	}
	tn.ts.CloseClientConnections()
	tn.ts.Close()
	tn.srv.Stop()
}

func (tn *testNode) close(t *testing.T) {
	t.Helper()
	if tn.closed.Swap(true) {
		return
	}
	tn.ts.Close()
	tn.srv.Stop()
}

// client follows 307s (Go re-sends the body automatically when GetBody
// is set, which http.Post does for byte readers).
func testClient() *http.Client { return &http.Client{Timeout: 5 * time.Second} }

func postJSON(t *testing.T, c *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// mustPost retries briefly on 503 (replication or hand-off windows) so
// tests survive the transient states they deliberately create.
func mustPost(t *testing.T, c *http.Client, url, body string) []byte {
	t.Helper()
	for attempt := 0; ; attempt++ {
		code, b := postJSON(t, c, url, body)
		if code == http.StatusOK {
			return b
		}
		if code == http.StatusServiceUnavailable && attempt < 40 {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		t.Fatalf("POST %s: %d %s", url, code, b)
	}
}

func fetchTail(t *testing.T, c *http.Client, base string, shard int) *serve.Tail {
	t.Helper()
	resp, err := c.Get(fmt.Sprintf("%s/v1/shards/%d/log?from=0", base, shard))
	if err != nil {
		t.Fatalf("GET log shard %d: %v", shard, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET log shard %d: %d %s", shard, resp.StatusCode, b)
	}
	var tail serve.Tail
	if err := json.NewDecoder(resp.Body).Decode(&tail); err != nil {
		t.Fatal(err)
	}
	return &tail
}

func fetchStatus(t *testing.T, c *http.Client, base string, shard int) *serve.ShardStatus {
	t.Helper()
	resp, err := c.Get(fmt.Sprintf("%s/v1/shards/%d", base, shard))
	if err != nil {
		t.Fatalf("GET status shard %d: %v", shard, err)
	}
	defer resp.Body.Close()
	var st serve.ShardStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// verifyShard pulls the shard's complete tail through the cluster (any
// base; 307s route to the primary) and byte-compares its digest against
// a single core.Replay of the merged log — the cluster-level
// differential check.
func verifyShard(t *testing.T, c *http.Client, base string, shard int) *serve.Tail {
	t.Helper()
	tail := fetchTail(t, c, base, shard)
	digest, err := serve.VerifyTail(tail)
	if err != nil {
		t.Fatalf("shard %d: replaying merged log: %v", shard, err)
	}
	if digest != tail.Digest {
		t.Fatalf("shard %d: replayed digest %016x != cluster digest %016x", shard, digest, tail.Digest)
	}
	return tail
}

// TestClusterDifferential is the capstone: a 3-node cluster under
// joins, reweights, and advances, with one live migration under load
// and one primary-death failover, finishing with every shard's digest
// byte-identical to a fresh core.Replay of its merged log and zero
// failed applies anywhere.
func TestClusterDifferential(t *testing.T) {
	const shards = 4
	nodes := []*testNode{
		newTestNode(t, "n1", shards),
		newTestNode(t, "n2", shards),
		newTestNode(t, "n3", shards),
	}
	coord, err := NewCoordinator(CoordinatorOptions{
		Shards: shards, Replicas: 2, MinNodes: 3, HeartbeatMisses: 2,
		Client: &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	for _, tn := range nodes {
		if err := tn.node.Register(cts.URL); err != nil {
			t.Fatal(err)
		}
	}
	tab := coord.Table()
	if tab == nil || tab.Version == 0 {
		t.Fatal("coordinator did not place after 3 registrations")
	}
	for _, tn := range nodes {
		if got := tn.node.Table(); got == nil || got.Version != tab.Version {
			t.Fatalf("node %s did not receive table v%d", tn.id, tab.Version)
		}
	}

	c := testClient()
	entry := nodes[0].ts.URL // all traffic enters here; 307s fan it out

	// Phase 1 — joins, advances, reweights on every shard.
	for s := 0; s < shards; s++ {
		for i := 0; i < 3; i++ {
			mustPost(t, c, fmt.Sprintf("%s/v1/shards/%d/commands", entry, s),
				fmt.Sprintf(`{"op":"join","task":"s%dt%d","weight":"1/8"}`, s, i))
		}
		mustPost(t, c, fmt.Sprintf("%s/v1/shards/%d/advance", entry, s), `{"slots":3}`)
		mustPost(t, c, fmt.Sprintf("%s/v1/shards/%d/commands", entry, s),
			fmt.Sprintf(`{"op":"reweight","task":"s%dt0","weight":"1/4"}`, s))
	}

	// Phase 2 — live migration of shard 1 while a writer hammers it.
	migShard := 1
	oldPrimary := tab.Shards[migShard].Primary
	var target string
	for _, tn := range nodes {
		if tn.id != oldPrimary {
			target = tn.id
			break
		}
	}
	stop := make(chan struct{})
	writerDone := make(chan int)
	go func() {
		writes := 0
		for i := 0; ; i++ {
			select {
			case <-stop:
				writerDone <- writes
				return
			default:
			}
			code, _ := postJSON(t, c, fmt.Sprintf("%s/v1/shards/%d/commands", entry, migShard),
				fmt.Sprintf(`{"op":"join","task":"mig%d","weight":"1/64"}`, i))
			if code == http.StatusOK {
				writes++
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	prom, err := coord.MigrateShard(migShard, target)
	if err != nil {
		t.Fatalf("migrating shard %d to %s: %v", migShard, target, err)
	}
	close(stop)
	acked := <-writerDone
	if acked == 0 {
		t.Fatal("writer landed no acked writes around the migration")
	}
	tab = coord.Table()
	if tab.Shards[migShard].Primary != target {
		t.Fatalf("table still routes shard %d to %s", migShard, tab.Shards[migShard].Primary)
	}
	// Every write acked before/around the hand-off must be in the log the
	// new primary serves. Admitted commands sit in the pending batch
	// until a slot boundary, so advance once to flush them into the log.
	mustPost(t, c, fmt.Sprintf("%s/v1/shards/%d/advance", entry, migShard), `{"slots":1}`)
	mtail := verifyShard(t, c, entry, migShard)
	joins := 0
	for _, cmd := range mtail.Commands {
		if strings.HasPrefix(cmd.Task, "mig") {
			joins++
		}
	}
	if joins < acked {
		t.Fatalf("migration lost acked writes: %d acked, %d in merged log", acked, joins)
	}
	if prom.Digest == 0 || mtail.Total != prom.Log+countSince(mtail, prom.Log) {
		t.Fatalf("inconsistent promote response: log %d of %d", prom.Log, mtail.Total)
	}

	// Phase 3 — kill shard 0's primary outright; the coordinator's
	// health checks promote a follower.
	deadID := tab.Shards[0].Primary
	var dead *testNode
	for _, tn := range nodes {
		if tn.id == deadID {
			dead = tn
		}
	}
	if dead == nil {
		t.Fatalf("primary %s of shard 0 is not a test node", deadID)
	}
	if entry == dead.ts.URL {
		for _, tn := range nodes {
			if tn != dead {
				entry = tn.ts.URL
				break
			}
		}
	}
	dead.crash()
	coord.CheckNodes()
	coord.CheckNodes() // second miss crosses the threshold
	tab = coord.Table()
	for s := 0; s < shards; s++ {
		if tab.Shards[s].Primary == deadID {
			t.Fatalf("shard %d still routed to dead node %s", s, deadID)
		}
	}

	// Phase 4 — the cluster keeps taking writes after the failover.
	for s := 0; s < shards; s++ {
		mustPost(t, c, fmt.Sprintf("%s/v1/shards/%d/commands", entry, s),
			fmt.Sprintf(`{"op":"join","task":"post%d","weight":"1/16"}`, s))
		mustPost(t, c, fmt.Sprintf("%s/v1/shards/%d/advance", entry, s), `{"slots":2}`)
	}

	// Final — differential check on every shard, and zero failed applies
	// on every surviving node.
	for s := 0; s < shards; s++ {
		verifyShard(t, c, entry, s)
		st := fetchStatus(t, c, entry, s)
		if st.FailedApplies != 0 {
			t.Fatalf("shard %d reports %d failed applies", s, st.FailedApplies)
		}
		if st.ClusterRole != "primary" {
			t.Fatalf("shard %d status came from a %q, not the primary", s, st.ClusterRole)
		}
	}
	for _, tn := range nodes {
		if tn == dead {
			continue
		}
		ok, fail := tn.node.Stats().Migrations()
		if tn.id == oldPrimary && (ok != 1 || fail != 0) {
			t.Fatalf("source node %s counted (ok=%d, fail=%d) migrations", tn.id, ok, fail)
		}
		resp, err := c.Get(tn.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range []string{"pd2d_cluster_role{shard=\"0\"}", "pd2d_repl_lag_slots{shard=\"0\"}", "pd2d_migrations_total{result=\"ok\"}"} {
			if !bytes.Contains(b, []byte(want)) {
				t.Fatalf("node %s /metrics misses %s", tn.id, want)
			}
		}
		tn.close(t)
	}
}

// countSince counts merged-log commands at indices >= n (the writes the
// old primary drained to the new one after promotion).
func countSince(t *serve.Tail, n int) int {
	if n > t.Total {
		return 0
	}
	return t.Total - n
}

// TestFollowerCrashMidStream: killing a follower mid-replication leaves
// the shard routable (writes resume once the follower is back and
// resynced) and digest-clean. It also pins the retry contract: a join
// that got 503 stays admitted on the primary, so its retry answers 409
// conflict (the name is burned) and the join is in the log once.
func TestFollowerCrashMidStream(t *testing.T) {
	const shards = 2
	n1 := newTestNode(t, "n1", shards)
	defer n1.close(t)
	n2 := newTestNode(t, "n2", shards)
	coord, err := NewCoordinator(CoordinatorOptions{
		Shards: shards, Replicas: 1, MinNodes: 2,
		Client: &http.Client{Timeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	if err := n1.node.Register(cts.URL); err != nil {
		t.Fatal(err)
	}
	if err := n2.node.Register(cts.URL); err != nil {
		t.Fatal(err)
	}
	tab := coord.Table()

	// Find a shard n1 leads and n2 follows.
	shard := -1
	for s, r := range tab.Shards {
		if r.Primary == "n1" {
			shard = s
			break
		}
	}
	if shard < 0 {
		n1, n2 = n2, n1 // swap so n1 is a primary of something
		for s, r := range tab.Shards {
			if r.Primary == n1.id {
				shard = s
				break
			}
		}
	}
	c := testClient()
	url := fmt.Sprintf("%s/v1/shards/%d/commands", n1.ts.URL, shard)
	mustPost(t, c, url, `{"op":"join","task":"a","weight":"1/4"}`)

	// Crash the follower mid-stream: the next write must NOT be acked
	// (sync replication cannot reach the follower).
	n2.crash()
	const joinB = `{"op":"join","task":"b","weight":"1/4"}`
	code, body := postJSON(t, c, url, joinB)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), `"replication"`) {
		t.Fatalf("write with dead follower answered %d %s, want 503 replication", code, body)
	}
	// The primary's lag gauge counts the slots the dead follower missed.
	advance := fmt.Sprintf("%s/v1/shards/%d/advance", n1.ts.URL, shard)
	if code, _ := postJSON(t, c, advance, `{"slots":3}`); code != http.StatusServiceUnavailable {
		t.Fatalf("advance with dead follower answered %d, want 503", code)
	}
	if lag := fetchStatus(t, c, n1.ts.URL, shard).ReplLagSlots; lag <= 0 {
		t.Fatalf("repl lag with the follower down reads %d, want > 0", lag)
	}

	// "Restart" the follower: a fresh process under a new base,
	// re-registering with the same identity. It resyncs from index 0.
	n2r := newTestNode(t, n2.id, shards)
	defer n2r.close(t)
	if err := n2r.node.Register(cts.URL); err != nil {
		t.Fatal(err)
	}
	code, body = postJSON(t, c, url, joinB)
	var res serve.CommandResult
	if err := json.Unmarshal(body, &res); err != nil || code != http.StatusConflict || res.Error != "conflict" {
		t.Fatalf("retried join answered %d %s, want 409 conflict", code, body)
	}
	// Writes flow again (the first may race the table re-push; mustPost
	// absorbs transient 503s), and the log — including the un-acked "b"
	// the primary kept, once — verifies clean after a boundary flush.
	mustPost(t, c, url, `{"op":"join","task":"c","weight":"1/4"}`)
	mustPost(t, c, advance, `{"slots":1}`)
	tail := verifyShard(t, c, n1.ts.URL, shard)
	if tail.Total < 3 {
		t.Fatalf("merged log holds %d commands, want >= 3", tail.Total)
	}
	joinsB := 0
	for _, cmd := range tail.Commands {
		if cmd.Op == core.OpJoin && cmd.Task == "b" {
			joinsB++
		}
	}
	if joinsB != 1 {
		t.Fatalf("join b is %d times in the merged log, want once", joinsB)
	}
	// And the follower's replica caught up to the full log.
	st := fetchStatus(t, c, n1.ts.URL, shard)
	if st.FailedApplies != 0 {
		t.Fatalf("%d failed applies after follower restart", st.FailedApplies)
	}
	if st.ReplLagSlots != 0 {
		t.Fatalf("repl lag after the follower resynced reads %d, want 0", st.ReplLagSlots)
	}
}

// TestConcurrentWriters: clients writing one shard at once, each write
// pushed to two followers in parallel or carried by a concurrent
// write's push, lose no acked write: at every 200 for a join, both
// followers' replicas already hold it, and both followers end in
// lockstep with the primary's engine, and would promote to its books.
func TestConcurrentWriters(t *testing.T) {
	const writers, perWriter = 4, 24
	coord, err := NewCoordinator(CoordinatorOptions{
		Shards: 1, Replicas: 2, MinNodes: 3,
		Client: &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	byID := map[string]*testNode{}
	for _, id := range []string{"n1", "n2", "n3"} {
		tn := newTestNode(t, id, 1)
		defer tn.close(t)
		if err := tn.node.Register(cts.URL); err != nil {
			t.Fatal(err)
		}
		byID[id] = tn
	}
	route := coord.Table().Shards[0]
	if len(route.Followers) != 2 {
		t.Fatalf("shard 0 has followers %v, want 2", route.Followers)
	}
	base := byID[route.Primary].ts.URL

	c := testClient()
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				path, body := "commands", fmt.Sprintf(`{"op":"join","task":"w%d-%d","weight":"1/256"}`, w, i)
				if i%6 == 5 {
					path, body = "advance", `{"slots":1}`
				}
				resp, err := c.Post(base+"/v1/shards/0/"+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d %s answered %d", w, body, resp.StatusCode)
					continue
				}
				if path == "commands" {
					name := fmt.Sprintf("w%d-%d", w, i)
					for _, id := range route.Followers {
						if !replicaHolds(byID[id], 0, name) {
							t.Errorf("join %s acked before follower %s held it", name, id)
						}
					}
					acked[w] = append(acked[w], name)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	mustPost(t, c, base+"/v1/shards/0/advance", `{"slots":1}`) // flush the last batch into the log
	tail := verifyShard(t, c, base, 0)
	joined := map[string]bool{}
	for _, cmd := range tail.Commands {
		if cmd.Op == core.OpJoin {
			joined[cmd.Task] = true
		}
	}
	for w := range acked {
		for _, name := range acked[w] {
			if !joined[name] {
				t.Fatalf("acked join %s is missing from the final log", name)
			}
		}
	}
	for _, id := range route.Followers {
		st := &byID[id].node.states[0]
		st.mu.Lock()
		rep := st.replica
		if rep == nil {
			st.mu.Unlock()
			t.Fatalf("follower %s holds no replica", id)
		}
		logLen, now := rep.Len(), rep.Now()
		snap := rep.Snapshot()
		st.mu.Unlock()
		if snap == nil {
			t.Fatalf("follower %s replica is not promotable", id)
		}
		if snap.Digest != tail.Digest || logLen != tail.Total || now != tail.Now {
			t.Fatalf("follower %s at (log %d, now %d, %016x), primary at (log %d, now %d, %016x)",
				id, logLen, now, snap.Digest, tail.Total, tail.Now, tail.Digest)
		}
		if got, want := promotedBooks(t, snap), shardBooks(t, byID[route.Primary].srv, 0); got != want {
			t.Fatalf("follower %s promotes with books %+v, primary %+v", id, got, want)
		}
	}
}

// TestReceiverCrashMidMigration: a migration to a dead receiver aborts
// cleanly — the gate reopens, the source keeps the shard, the failure
// is counted, and the digest stays clean.
func TestReceiverCrashMidMigration(t *testing.T) {
	const shards = 2
	n1 := newTestNode(t, "n1", shards)
	defer n1.close(t)
	n2 := newTestNode(t, "n2", shards)
	coord, err := NewCoordinator(CoordinatorOptions{
		Shards: shards, Replicas: 1, MinNodes: 2, HeartbeatMisses: 2,
		Client: &http.Client{Timeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	if err := n1.node.Register(cts.URL); err != nil {
		t.Fatal(err)
	}
	if err := n2.node.Register(cts.URL); err != nil {
		t.Fatal(err)
	}
	tab := coord.Table()
	shard := -1
	for s, r := range tab.Shards {
		if r.Primary == "n1" {
			shard = s
			break
		}
	}
	if shard < 0 {
		n1, n2 = n2, n1
		for s, r := range tab.Shards {
			if r.Primary == n1.id {
				shard = s
				break
			}
		}
	}
	c := testClient()
	url := fmt.Sprintf("%s/v1/shards/%d/commands", n1.ts.URL, shard)
	mustPost(t, c, url, `{"op":"join","task":"a","weight":"1/4"}`)

	// Kill the receiver, then ask for a migration onto it. The
	// coordinator still believes it is alive (no heartbeat ran), so the
	// source discovers the death mid-stream and must abort.
	n2.crash()
	if _, err := coord.MigrateShard(shard, n2.id); err == nil {
		t.Fatal("migration to a dead receiver reported success")
	}
	if ok, fail := n1.node.Stats().Migrations(); ok != 0 || fail != 1 {
		t.Fatalf("source counted (ok=%d, fail=%d), want (0, 1)", ok, fail)
	}
	// The shard is still here and still routable; the gate reopened.
	// (Writes need the follower back for sync replication.)
	n2r := newTestNode(t, n2.id, shards)
	defer n2r.close(t)
	if err := n2r.node.Register(cts.URL); err != nil {
		t.Fatal(err)
	}
	mustPost(t, c, url, `{"op":"join","task":"b","weight":"1/4"}`)
	mustPost(t, c, fmt.Sprintf("%s/v1/shards/%d/advance", n1.ts.URL, shard), `{"slots":1}`)
	tail := verifyShard(t, c, n1.ts.URL, shard)
	if tail.Total != 2 {
		t.Fatalf("merged log holds %d commands, want 2", tail.Total)
	}
	tabNow := coord.Table()
	if tabNow.Shards[shard].Primary != n1.id {
		t.Fatalf("aborted migration still moved the route to %s", tabNow.Shards[shard].Primary)
	}
}

// TestTablePromoteRefusesWithoutState: a pushed table naming this node
// primary must not flip the role unless the node actually holds the
// shard's state. Only the initial placement (version 1 — no write can
// have been acked before the first table existed) seeds from the local
// engine; any later table is refused when the node has no replica, so
// an empty or stale node can never silently serve a shard whose acked
// writes live elsewhere.
func TestTablePromoteRefusesWithoutState(t *testing.T) {
	tn := newTestNode(t, "n1", 1)
	defer tn.close(t)
	v2 := &RouteTable{
		Version: 2,
		Shards:  []ShardRoute{{Shard: 0, Primary: "n1"}},
		Nodes:   map[string]string{"n1": tn.ts.URL},
	}
	tn.node.UpdateTable(v2)
	if got := tn.node.roleOf(0); got != RoleNone {
		t.Fatalf("empty node took the crown from a v2 table: role %d", got)
	}

	// The genuine fresh-cluster seed: version 1 crowns the local state.
	tn2 := newTestNode(t, "n2", 1)
	defer tn2.close(t)
	v1 := &RouteTable{
		Version: 1,
		Shards:  []ShardRoute{{Shard: 0, Primary: "n2"}},
		Nodes:   map[string]string{"n2": tn2.ts.URL},
	}
	tn2.node.UpdateTable(v1)
	if got := tn2.node.roleOf(0); got != RolePrimary {
		t.Fatalf("initial placement did not seed the primary: role %d", got)
	}
}

// TestOrphanShardStaysUnrouted: when a shard loses both its primary and
// its only follower, no survivor holds the state, so the coordinator
// must leave the shard routed at its dead primary (unrouted in
// practice) rather than crown a rank-chosen survivor — and further
// heartbeat rounds and registrations must not reassign it either.
func TestOrphanShardStaysUnrouted(t *testing.T) {
	const shards = 4
	byID := map[string]*testNode{}
	coord, err := NewCoordinator(CoordinatorOptions{
		Shards: shards, Replicas: 1, MinNodes: 3, HeartbeatMisses: 2,
		Client: &http.Client{Timeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	for _, id := range []string{"n1", "n2", "n3"} {
		tn := newTestNode(t, id, shards)
		byID[id] = tn
		if err := tn.node.Register(cts.URL); err != nil {
			t.Fatal(err)
		}
	}
	tab := coord.Table()
	doomed := 0
	primary := tab.Shards[doomed].Primary
	follower := tab.Shards[doomed].Followers[0]
	survivorID := ""
	for id := range byID {
		if id != primary && id != follower {
			survivorID = id
		}
	}
	survivor := byID[survivorID]
	defer survivor.close(t)

	// Land an acked write on the doomed shard so losing it would matter.
	c := testClient()
	mustPost(t, c, fmt.Sprintf("%s/v1/shards/%d/commands", byID[primary].ts.URL, doomed),
		`{"op":"join","task":"a","weight":"1/4"}`)

	byID[primary].crash()
	byID[follower].crash()
	coord.CheckNodes()
	coord.CheckNodes() // second miss crosses the threshold
	coord.CheckNodes() // retry round: still no holder of the state
	tab = coord.Table()
	if got := tab.Shards[doomed].Primary; got != primary {
		t.Fatalf("orphaned shard %d reassigned %s → %s without a verified promote", doomed, primary, got)
	}
	if got := survivor.node.roleOf(doomed); got == RolePrimary {
		t.Fatalf("survivor %s took primary for shard %d without the state", survivorID, doomed)
	}
	// A registration-triggered rebalance must not crown the survivor
	// either.
	late := newTestNode(t, "n4", shards)
	defer late.close(t)
	if err := late.node.Register(cts.URL); err != nil {
		t.Fatal(err)
	}
	tab = coord.Table()
	if got := tab.Shards[doomed].Primary; got != primary {
		t.Fatalf("join rebalance reassigned orphaned shard %d %s → %s", doomed, primary, got)
	}
	if got := late.node.roleOf(doomed); got != RoleNone {
		t.Fatalf("late joiner holds role %d for the orphaned shard", got)
	}
}

// TestOversizedMutationIs413: a mutation body over the router's read
// limit answers 413 too_large, as a single node does, on the primary
// and on a follower alike.
func TestOversizedMutationIs413(t *testing.T) {
	g := newGroupCluster(t, 2, 1)
	body := `{"x":"` + strings.Repeat("a", 1<<20+1) + `"}`
	for _, tn := range []*testNode{g.primary, g.followers[0]} {
		code, data := postJSON(t, g.c, g.url(tn, "commands"), body)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("node %s: oversized body answered %d: %s", tn.id, code, data)
		}
		var res serve.ErrorResponse
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("node %s: 413 body not an ErrorResponse: %v: %s", tn.id, err, data)
		}
		if res.Error != "too_large" || !strings.Contains(res.Reason, "byte limit") {
			t.Fatalf("node %s: 413 payload %+v", tn.id, res)
		}
	}
}

// TestProxyRelaysHeaders: a write proxied to the new primary after a
// hand-off reaches the client with the upstream's status, body and
// headers, so a 429's Retry-After and a 307's Location survive.
func TestProxyRelaysHeaders(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.Header().Set("Location", "http://elsewhere/v1/shards/0/commands")
		w.Header().Set(RouteVersionHeader, "7")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = io.WriteString(w, `{"error":"mailbox_full"}`)
	}))
	defer upstream.Close()
	n := &Node{client: upstream.Client()}
	body := []byte(`{"op":"join","task":"a","weight":"1/4"}`)
	rec := httptest.NewRecorder()
	n.proxy(rec, httptest.NewRequest(http.MethodPost, "/v1/shards/0/commands", bytes.NewReader(body)), upstream.URL, body)
	if rec.Code != http.StatusTooManyRequests || rec.Body.String() != `{"error":"mailbox_full"}` {
		t.Fatalf("proxied answer %d %q, want 429 and the upstream body", rec.Code, rec.Body.String())
	}
	for name, want := range map[string]string{
		"Retry-After":      "3",
		"Location":         "http://elsewhere/v1/shards/0/commands",
		RouteVersionHeader: "7",
	} {
		if got := rec.Header().Get(name); got != want {
			t.Errorf("header %s = %q, want %q", name, got, want)
		}
	}
}

// BenchmarkClusterMigration measures one full live hand-off (warm
// stream, freeze, final delta, digest-checked promote, demote) of a
// shard with a populated log, ping-ponging between two nodes.
func BenchmarkClusterMigration(b *testing.B) {
	const shards = 1
	mk := func(id string) *testNode {
		tn := &testNode{id: id}
		tn.h.Store(hbox{http.NotFoundHandler()})
		tn.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tn.h.Load().(hbox).h.ServeHTTP(w, r)
		}))
		srv, err := serve.New(serve.Options{Shards: shards, Config: serve.ShardConfig{M: 2}})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		cs := serve.NewClusterStats(shards)
		srv.AttachClusterStats(cs)
		node, err := NewNode(NodeOptions{ID: id, Base: tn.ts.URL, Server: srv, Stats: cs,
			Client: &http.Client{Timeout: 5 * time.Second}})
		if err != nil {
			b.Fatal(err)
		}
		tn.srv, tn.node = srv, node
		tn.h.Store(hbox{node.Handler()})
		return tn
	}
	n1, n2 := mk("n1"), mk("n2")
	defer func() { n1.ts.Close(); n1.srv.Stop(); n2.ts.Close(); n2.srv.Stop() }()
	coord, err := NewCoordinator(CoordinatorOptions{Shards: shards, Replicas: 1, MinNodes: 2,
		Client: &http.Client{Timeout: 5 * time.Second}})
	if err != nil {
		b.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	if err := n1.node.Register(cts.URL); err != nil {
		b.Fatal(err)
	}
	if err := n2.node.Register(cts.URL); err != nil {
		b.Fatal(err)
	}
	c := testClient()
	primary := coord.Table().Shards[0].Primary
	base := n1.ts.URL
	for i := 0; i < 64; i++ {
		body := fmt.Sprintf(`{"op":"join","task":"t%d","weight":"1/128"}`, i)
		resp, err := c.Post(base+"/v1/shards/0/commands", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	other := map[string]string{"n1": "n2", "n2": "n1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := other[primary]
		if _, err := coord.MigrateShard(0, target); err != nil {
			b.Fatalf("iteration %d: %v", i, err)
		}
		primary = target
	}
}
