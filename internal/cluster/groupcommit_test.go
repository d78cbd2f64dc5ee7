package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// pushTap wraps a node's intra-cluster transport. It counts the /repl
// POSTs the node sends to each host and, while held, parks every push
// until released.
type pushTap struct {
	mu     sync.Mutex
	posts  map[string]int // by follower host
	gate   chan struct{}  // non-nil while held: pushes wait for its close
	parked chan struct{}  // one token per push that parked
}

func newPushTap() *pushTap {
	// Sized past any push count a test parks, so a push never blocks on
	// its token.
	return &pushTap{posts: map[string]int{}, parked: make(chan struct{}, 16)}
}

func (tp *pushTap) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/repl") {
		tp.mu.Lock()
		tp.posts[r.URL.Host]++
		gate := tp.gate
		tp.mu.Unlock()
		if gate != nil {
			tp.parked <- struct{}{}
			<-gate
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// hold parks every push from now until release.
func (tp *pushTap) hold() {
	tp.mu.Lock()
	tp.gate = make(chan struct{})
	tp.mu.Unlock()
}

// release lets the parked pushes go and parks no more. Idempotent.
func (tp *pushTap) release() {
	tp.mu.Lock()
	if tp.gate != nil {
		close(tp.gate)
		tp.gate = nil
	}
	tp.mu.Unlock()
}

// waitParked waits until a push has parked.
func (tp *pushTap) waitParked(t *testing.T) {
	t.Helper()
	select {
	case <-tp.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no push parked within 10s")
	}
}

// reset zeroes the push counts.
func (tp *pushTap) reset() {
	tp.mu.Lock()
	tp.posts = map[string]int{}
	tp.mu.Unlock()
}

// pushesTo returns the pushes sent to tn since the last reset.
func (tp *pushTap) pushesTo(tn *testNode) int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.posts[tn.ts.Listener.Addr().String()]
}

// groupCluster is one shard on a few nodes behind a coordinator that
// gives it `replicas` followers, with every node's intra-cluster client
// tapped. No anti-entropy loop or heartbeat runs, so every push is one
// a test caused.
type groupCluster struct {
	coord     *Coordinator
	byID      map[string]*testNode
	taps      map[string]*pushTap
	primary   *testNode
	followers []*testNode
	spares    []*testNode // nodes that neither lead nor follow the shard
	c         *http.Client
}

func newGroupCluster(t *testing.T, nodes, replicas int) *groupCluster {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorOptions{
		Shards: 1, Replicas: replicas, MinNodes: nodes,
		Client: &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	g := &groupCluster{coord: coord, byID: map[string]*testNode{}, taps: map[string]*pushTap{}, c: testClient()}
	for i := 1; i <= nodes; i++ {
		tn := newTestNode(t, fmt.Sprintf("n%d", i), 1)
		t.Cleanup(func() { tn.close(t) })
		tap := newPushTap()
		tn.node.client.Transport = tap
		// Runs before the node closes, so a failed test never leaves a
		// push parked in a handler the close would wait for.
		t.Cleanup(tap.release)
		if err := tn.node.Register(cts.URL); err != nil {
			t.Fatal(err)
		}
		g.byID[tn.id], g.taps[tn.id] = tn, tap
	}
	route := coord.Table().Shards[0]
	g.primary = g.byID[route.Primary]
	for _, id := range route.Followers {
		g.followers = append(g.followers, g.byID[id])
	}
	for id, tn := range g.byID {
		if id != route.Primary && !containsNode(route.Followers, id) {
			g.spares = append(g.spares, tn)
		}
	}
	if len(g.followers) != replicas {
		t.Fatalf("shard 0 has followers %v, want %d", route.Followers, replicas)
	}
	return g
}

func (g *groupCluster) url(tn *testNode, op string) string {
	return tn.ts.URL + "/v1/shards/0/" + op
}

// settle lands one acked join and one acked advance on the primary, so
// every follower has acked the shard's current sequence and the
// pending batch is empty.
func (g *groupCluster) settle(t *testing.T) {
	t.Helper()
	mustPost(t, g.c, g.url(g.primary, "commands"), `{"op":"join","task":"seed","weight":"1/64"}`)
	mustPost(t, g.c, g.url(g.primary, "advance"), `{"slots":1}`)
}

// covered reads the primary's count of writes acked with no push of
// their own.
func (g *groupCluster) covered(t *testing.T) int64 {
	t.Helper()
	return fetchStatus(t, g.c, g.primary.ts.URL, 0).ReplCoveredWrites
}

// waitPendingBatch polls the primary until its pending batch holds n
// admitted commands.
func (g *groupCluster) waitPendingBatch(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fetchStatus(t, g.c, g.primary.ts.URL, 0).PendingBatch != n {
		if time.Now().After(deadline) {
			t.Fatalf("pending batch never reached %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// joinAck is one concurrent join's answer.
type joinAck struct {
	task string
	code int
	err  error
}

// goJoin posts a join of task to base from a new goroutine and sends
// the answer to out.
func goJoin(c *http.Client, url, task string, out chan<- joinAck) {
	go func() {
		resp, err := c.Post(url, "application/json",
			strings.NewReader(fmt.Sprintf(`{"op":"join","task":%q,"weight":"1/64"}`, task)))
		if err != nil {
			out <- joinAck{task: task, err: err}
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out <- joinAck{task: task, code: resp.StatusCode}
	}()
}

// recvAck waits for the next join answer and fails unless it is a 200.
func recvAck(t *testing.T, acks <-chan joinAck) joinAck {
	t.Helper()
	select {
	case a := <-acks:
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("join %s answered %d (%v), want 200", a.task, a.code, a.err)
		}
		return a
	case <-time.After(10 * time.Second):
		t.Fatal("no join answered within 10s")
		return joinAck{}
	}
}

// replicaHolds reports whether tn's replica of the shard carries a join
// of task: in its log or its pending batch.
func replicaHolds(tn *testNode, shard int, task string) bool {
	st := &tn.node.states[shard]
	st.mu.Lock()
	snap := st.replica.Snapshot()
	st.mu.Unlock()
	if snap == nil {
		return false
	}
	for _, c := range snap.Commands {
		if c.Op == core.OpJoin && c.Task == task {
			return true
		}
	}
	for _, c := range snap.Batch {
		if c.Op == core.OpJoin && c.Task == task {
			return true
		}
	}
	return false
}

// mustHold fails unless every node holds every task in its replica.
func mustHold(t *testing.T, when string, nodes []*testNode, tasks ...string) {
	t.Helper()
	for _, tn := range nodes {
		for _, task := range tasks {
			if !replicaHolds(tn, 0, task) {
				t.Fatalf("%s: follower %s does not hold %s", when, tn.id, task)
			}
		}
	}
}

// mustPushes fails unless the tap counted exactly n pushes to each node.
func mustPushes(t *testing.T, tap *pushTap, n int, nodes ...*testNode) {
	t.Helper()
	for _, tn := range nodes {
		if got := tap.pushesTo(tn); got != n {
			t.Fatalf("follower %s got %d pushes, want %d", tn.id, got, n)
		}
	}
}

// TestCoveredWritesShareOnePush: two writes admitted while another push
// holds the replication lock are carried by one push to each follower.
// The write whose turn comes second is acked with no push of its own,
// and each 200 arrives only once both followers hold both writes.
func TestCoveredWritesShareOnePush(t *testing.T) {
	g := newGroupCluster(t, 3, 2)
	g.settle(t)
	tap := g.taps[g.primary.id]
	before := g.covered(t)

	st := &g.primary.node.states[0]
	st.replMu.Lock()
	locked := true
	defer func() {
		if locked {
			st.replMu.Unlock()
		}
	}()
	acks := make(chan joinAck, 2)
	goJoin(g.c, g.url(g.primary, "commands"), "a", acks)
	goJoin(g.c, g.url(g.primary, "commands"), "b", acks)
	g.waitPendingBatch(t, 2)
	tap.reset()
	locked = false
	st.replMu.Unlock()

	for i := 0; i < 2; i++ {
		a := recvAck(t, acks)
		mustHold(t, "at the 200 for "+a.task, g.followers, "a", "b")
	}
	mustPushes(t, tap, 1, g.followers...)
	if got := g.covered(t) - before; got != 1 {
		t.Fatalf("primary counted %d covered writes, want 1", got)
	}
}

// TestWriteAfterCutGetsItsOwnPush: a write admitted after a push cut its
// tail is not in that tail, so it gets a push of its own.
func TestWriteAfterCutGetsItsOwnPush(t *testing.T) {
	g := newGroupCluster(t, 3, 2)
	g.settle(t)
	tap := g.taps[g.primary.id]
	before := g.covered(t)
	tap.reset()

	tap.hold()
	acks := make(chan joinAck, 2)
	goJoin(g.c, g.url(g.primary, "commands"), "a", acks)
	tap.waitParked(t) // a's tail is cut and on the wire
	goJoin(g.c, g.url(g.primary, "commands"), "b", acks)
	g.waitPendingBatch(t, 2)
	tap.release()

	for i := 0; i < 2; i++ {
		a := recvAck(t, acks)
		mustHold(t, "at the 200 for "+a.task, g.followers, a.task)
	}
	mustPushes(t, tap, 2, g.followers...)
	if got := g.covered(t) - before; got != 0 {
		t.Fatalf("primary counted %d covered writes, want 0", got)
	}
}

// TestAddedFollowerIsPushed: a follower that a newer table adds has
// acked nothing, so a write that the old follower set already holds is
// still pushed to it, and only to it, before the write is acked.
func TestAddedFollowerIsPushed(t *testing.T) {
	g := newGroupCluster(t, 3, 1)
	g.settle(t)
	tap := g.taps[g.primary.id]
	old, added := g.followers[0], g.spares[0]

	st := &g.primary.node.states[0]
	st.replMu.Lock()
	locked := true
	defer func() {
		if locked {
			st.replMu.Unlock()
		}
	}()
	acks := make(chan joinAck, 2)
	goJoin(g.c, g.url(g.primary, "commands"), "a", acks)
	goJoin(g.c, g.url(g.primary, "commands"), "b", acks)
	g.waitPendingBatch(t, 2)
	tap.reset()
	tap.hold()
	locked = false
	st.replMu.Unlock()
	tap.waitParked(t) // the first push carries a and b to the old follower set

	tab := g.coord.Table().Clone()
	tab.Version++
	tab.Shards[0].Followers = append(tab.Shards[0].Followers, added.id)
	for _, tn := range g.byID {
		tn.node.UpdateTable(tab)
	}
	tap.release()

	for i := 0; i < 2; i++ {
		a := recvAck(t, acks)
		mustHold(t, "at the 200 for "+a.task, []*testNode{old}, "a", "b")
	}
	mustHold(t, "after both 200s", []*testNode{added}, "a", "b")
	mustPushes(t, tap, 1, old, added)
}

// TestNewShardInstanceIsPushed: a demote→promote cycle installs a new
// shard instance whose sequence restarts at zero, so the follower
// sequences acked under the old instance must not cover the next write.
func TestNewShardInstanceIsPushed(t *testing.T) {
	g := newGroupCluster(t, 2, 1)
	g.settle(t)
	p, f := g.primary, g.followers[0]

	// Demote: the follower takes the crown from its replica.
	tab := g.coord.Table().Clone()
	swap := func() {
		tab = tab.Clone()
		tab.Version++
		r := &tab.Shards[0]
		r.Primary, r.Followers = r.Followers[0], []string{r.Primary}
		for _, id := range []string{r.Primary, r.Followers[0]} {
			g.byID[id].node.UpdateTable(tab)
		}
	}
	swap()
	if f.node.roleOf(0) != RolePrimary || p.node.roleOf(0) != RoleFollower {
		t.Fatalf("demote: roles (%d, %d), want follower and primary swapped", p.node.roleOf(0), f.node.roleOf(0))
	}
	mustPost(t, g.c, g.url(f, "commands"), `{"op":"join","task":"mid","weight":"1/64"}`)

	// Promote back: a new shard instance on the old primary.
	swap()
	if p.node.roleOf(0) != RolePrimary {
		t.Fatalf("promote: role %d, want primary", p.node.roleOf(0))
	}
	if seq := p.srv.ShardSeq(0); seq != 0 {
		t.Fatalf("installed shard instance starts at sequence %d, want 0", seq)
	}
	tap := g.taps[p.id]
	tap.reset()
	mustPost(t, g.c, g.url(p, "commands"), `{"op":"join","task":"after","weight":"1/64"}`)
	mustPushes(t, tap, 1, f)
	mustHold(t, "after the 200", []*testNode{f}, "seed", "mid", "after")
}

// TestFreshFollowerCaughtUpWithoutWrite: after a promotion the shard
// instance InstallShard built counts from sequence 0, and a follower the
// next table adds has acked nothing, so it is behind even sequence 0.
// Anti-entropy must push it the whole log with no write to prompt it;
// otherwise, with one replica per shard, the next failover finds no
// replicated state to promote.
func TestFreshFollowerCaughtUpWithoutWrite(t *testing.T) {
	for _, how := range []string{"promote", "table"} {
		t.Run(how, func(t *testing.T) {
			g := newGroupCluster(t, 3, 1)
			g.settle(t)
			f, added := g.followers[0], g.spares[0]
			if how == "promote" {
				if _, err := postPromote(g.c, f.ts.URL, 0); err != nil {
					t.Fatalf("promote %s: %v", f.id, err)
				}
			}
			tab := g.coord.Table().Clone()
			tab.Version++
			tab.Shards[0].Primary, tab.Shards[0].Followers = f.id, []string{added.id}
			for _, tn := range g.byID {
				tn.node.UpdateTable(tab)
			}
			if f.node.roleOf(0) != RolePrimary {
				t.Fatalf("role %d on %s, want primary", f.node.roleOf(0), f.id)
			}
			if seq := f.srv.ShardSeq(0); seq != 0 {
				t.Fatalf("installed shard instance starts at sequence %d, want 0", seq)
			}

			tap := g.taps[f.id]
			tap.reset()
			if err := f.node.catchUp(0); err != nil {
				t.Fatalf("catch-up: %v", err)
			}
			mustPushes(t, tap, 1, added)
			want, err := f.srv.ShardTail(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			st := &added.node.states[0]
			st.mu.Lock()
			got := st.replica.Snapshot()
			st.mu.Unlock()
			if got == nil {
				t.Fatalf("follower %s holds no replica after catch-up", added.id)
			}
			if got.Total != want.Total || got.Now != want.Now || got.Digest != want.Digest {
				t.Fatalf("replica (log=%d, now=%d, %016x), primary (log=%d, now=%d, %016x)",
					got.Total, got.Now, got.Digest, want.Total, want.Now, want.Digest)
			}
			mustHold(t, "after catch-up", []*testNode{added}, "seed")

			// The follower acked the current sequence: an idle shard cuts
			// no further tail.
			if err := f.node.catchUp(0); err != nil {
				t.Fatalf("second catch-up: %v", err)
			}
			mustPushes(t, tap, 1, added)

			// The primary dies; the follower's replica is promotable.
			prom, err := postPromote(g.c, added.ts.URL, 0)
			if err != nil {
				t.Fatalf("promote %s after catch-up: %v", added.id, err)
			}
			if prom.Digest != want.Digest || prom.Log != want.Total {
				t.Fatalf("%s took over at (log=%d, %016x), want (log=%d, %016x)",
					added.id, prom.Log, prom.Digest, want.Total, want.Digest)
			}
			if got, want := shardBooks(t, added.srv, 0), shardBooks(t, f.srv, 0); got != want {
				t.Fatalf("%s took over with books %+v, the primary's are %+v", added.id, got, want)
			}
		})
	}
}
