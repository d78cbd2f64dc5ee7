package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// RouteVersionHeader carries the routing-table version on every reply
// that passed through a node (and on the coordinator's route endpoint).
// Clients cache the table and refresh when the header disagrees with
// their copy.
const RouteVersionHeader = "X-PD2-Route-Version"

// Role codes, aliased from serve so the two layers share one gauge
// vocabulary.
const (
	RoleNone     = serve.RoleNone
	RoleFollower = serve.RoleFollower
	RolePrimary  = serve.RolePrimary
)

// Wire types of the intra-cluster protocol (docs/CLUSTER.md).

// replAck answers a replication push: 200 carries the follower's log
// length and clock after applying the tail; 409 carries the log index
// the follower wants instead (Want = -1 refuses outright — the receiver
// believes it is the primary).
type replAck struct {
	Acked int   `json:"acked"`
	Now   int64 `json:"now"`
	Want  int   `json:"want"`
}

// appendJSON appends the ack as json.Encoder writes it, newline included.
func (a replAck) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"acked":`...)
	dst = strconv.AppendInt(dst, int64(a.Acked), 10)
	dst = append(dst, `,"now":`...)
	dst = strconv.AppendInt(dst, a.Now, 10)
	dst = append(dst, `,"want":`...)
	dst = strconv.AppendInt(dst, int64(a.Want), 10)
	return append(dst, "}\n"...)
}

// parseReplAck reads an ack as appendJSON writes it: an object of the
// three integer keys in any order, with whitespace around it.
func parseReplAck(b []byte) (replAck, error) {
	var a replAck
	body := bytes.TrimSpace(b)
	if len(body) < 2 || body[0] != '{' || body[len(body)-1] != '}' {
		return a, fmt.Errorf("cluster: push ack %q is not an object", b)
	}
	for _, m := range bytes.Split(body[1:len(body)-1], []byte(",")) {
		k, v, _ := bytes.Cut(m, []byte(":"))
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return a, fmt.Errorf("cluster: push ack %q: %v", b, err)
		}
		switch string(k) {
		case `"acked"`:
			a.Acked = int(n)
		case `"now"`:
			a.Now = n
		case `"want"`:
			a.Want = int(n)
		default:
			return a, fmt.Errorf("cluster: push ack %q has key %s", b, k)
		}
	}
	return a, nil
}

// PromoteResponse reports the state a node installed when it took over
// a shard; the caller compares Digest against its own expectation.
type PromoteResponse struct {
	Shard  int    `json:"shard"`
	Digest uint64 `json:"digest"`
	Now    int64  `json:"now"`
	Log    int    `json:"log"`
}

// migrateRequest asks a primary to hand one shard to the target node.
type migrateRequest struct {
	TargetID   string `json:"target_id"`
	TargetBase string `json:"target_base"`
}

// RegisterRequest announces a node to the coordinator.
type RegisterRequest struct {
	ID   string `json:"id"`
	Base string `json:"base"`
}

// followerState is a primary's view of one follower's progress. A
// shard's entries live from the moment it becomes primary until its
// role changes or a table drops the follower, so seq is compared only
// with sequences of the same follower set and shard instance.
type followerState struct {
	acked int   // log entries the follower confirmed
	now   int64 // follower clock at last ack
	seq   int64 // serve mutation sequence of the last tail it acked; -1 before the first
	stale bool  // last push failed; anti-entropy keeps retrying
}

// behind reports whether the follower may lack a mutation the shard had
// counted by sequence need. A follower that has acked nothing always is,
// even at need 0 (a shard instance InstallShard just built); so is a
// stale one: the failed push may have reset its replica since it acked
// seq.
func (fs *followerState) behind(need int64) bool { return fs.stale || fs.seq < need }

// shardState is a node's cluster-side state for one shard slot. The
// serve layer underneath holds the engine; this layer holds the role,
// the replication progress (primary), the warm replica (follower), and
// the migration gate.
//
// Lock order: Node.updateMu or shardState.replMu (never both), then
// Node.mu, then shardState.mu, never the reverse.
type shardState struct {
	mu        sync.Mutex
	role      int32
	frozen    bool          // migration hand-off in progress: mutations wait
	unfrozen  chan struct{} // closed when the gate opens
	migrating bool          // a migration owns the shard (warm phase included)
	forward   string        // drain target after a hand-off, until the table flips
	followers map[string]*followerState
	replica   *Replica

	// replMu serializes replication pushes for the shard so follower
	// progress advances monotonically without holding mu — which reads
	// and the migration gate consult — across network round trips.
	replMu sync.Mutex
}

// NodeOptions configures a cluster node around an existing serve
// server.
type NodeOptions struct {
	ID          string        // cluster-unique node name
	Base        string        // advertised HTTP base URL, e.g. http://host:port
	Server      *serve.Server // hosts every global shard; shard IDs are global
	Stats       *serve.ClusterStats
	Client      *http.Client  // intra-cluster client; default 5s timeout
	GateTimeout time.Duration // how long queued writes wait out a hand-off; default 5s
}

// A Node wraps a serve server with the cluster middleware: requests for
// shards this node is not primary of are redirected (307) to the
// primary, mutations on primary shards are synchronously replicated to
// every follower before the client sees its ack, and the migration
// endpoints move a shard out with a digest check before any traffic
// lands on the receiver.
type Node struct {
	id     string
	base   string
	srv    *serve.Server
	cs     *serve.ClusterStats
	client *http.Client
	gateTO time.Duration

	// updateMu serializes whole UpdateTable runs (version check plus the
	// per-shard role reconcile) so two concurrent pushes cannot
	// interleave their reconcile loops and leave a shard's role set from
	// the older table.
	updateMu sync.Mutex

	mu    sync.Mutex // guards table; ordered before any shardState.mu
	table *RouteTable

	states []shardState
	mux    *http.ServeMux

	stopc chan struct{}
	wg    sync.WaitGroup
}

// NewNode builds a node over the server. The server should already have
// the node's ClusterStats attached so /metrics and shard statuses carry
// the cluster gauges.
func NewNode(opts NodeOptions) (*Node, error) {
	if opts.ID == "" || opts.Base == "" {
		return nil, fmt.Errorf("cluster: node needs an ID and a base URL")
	}
	if opts.Server == nil {
		return nil, fmt.Errorf("cluster: node needs a serve.Server")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if opts.GateTimeout <= 0 {
		opts.GateTimeout = 5 * time.Second
	}
	if opts.Stats == nil {
		opts.Stats = serve.NewClusterStats(opts.Server.NumShards())
	}
	n := &Node{
		id:     opts.ID,
		base:   strings.TrimRight(opts.Base, "/"),
		srv:    opts.Server,
		cs:     opts.Stats,
		client: opts.Client,
		gateTO: opts.GateTimeout,
		states: make([]shardState, opts.Server.NumShards()),
		stopc:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/shards/{shard}/repl", n.handleRepl)
	mux.HandleFunc("POST /v1/cluster/shards/{shard}/promote", n.handlePromote)
	mux.HandleFunc("POST /v1/cluster/shards/{shard}/migrate", n.handleMigrate)
	mux.HandleFunc("POST /v1/cluster/route", n.handleRoutePush)
	mux.HandleFunc("GET /v1/cluster/route", n.handleRouteGet)
	mux.Handle("/", http.HandlerFunc(n.route))
	n.mux = mux
	return n, nil
}

// Stats returns the node's cluster gauges (for wiring into the server).
func (n *Node) Stats() *serve.ClusterStats { return n.cs }

// Handler returns the node's HTTP surface: the cluster protocol plus
// the routed serve API.
func (n *Node) Handler() http.Handler { return n.mux }

// Start launches the anti-entropy loop: every interval, primaries push
// their tail to any follower that is behind or marked stale. This is
// what carries tick-only progress (advances grow no log) and what heals
// followers after transient push failures. Interval defaults to 500ms.
func (n *Node) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-n.stopc:
				return
			case <-t.C:
				for s := range n.states {
					_ = n.catchUp(s) // stale followers retried next round
				}
			}
		}
	}()
}

// Stop halts the anti-entropy loop.
func (n *Node) Stop() {
	close(n.stopc)
	n.wg.Wait()
}

// Register announces the node to the coordinator and installs whatever
// routing table the coordinator already has.
func (n *Node) Register(coordBase string) error {
	body, _ := json.Marshal(RegisterRequest{ID: n.id, Base: n.base})
	resp, err := n.client.Post(strings.TrimRight(coordBase, "/")+"/v1/cluster/nodes",
		"application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: register with %s: %w", coordBase, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: register with %s: %s", coordBase, resp.Status)
	}
	var tab RouteTable
	if err := json.NewDecoder(resp.Body).Decode(&tab); err != nil {
		return fmt.Errorf("cluster: register reply: %w", err)
	}
	if tab.Version > 0 {
		n.UpdateTable(&tab)
	}
	return nil
}

// Table returns the node's current routing table (nil before the first
// placement).
func (n *Node) Table() *RouteTable {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.table
}

// UpdateTable installs a newer routing table and reconciles every
// shard's role against it. Stale versions are ignored.
func (n *Node) UpdateTable(tab *RouteTable) {
	n.updateMu.Lock()
	defer n.updateMu.Unlock()
	n.mu.Lock()
	if n.table != nil && tab.Version <= n.table.Version {
		n.mu.Unlock()
		return
	}
	n.table = tab.Clone()
	n.mu.Unlock()

	for s := range n.states {
		if s >= len(tab.Shards) {
			break
		}
		route := tab.Shards[s]
		st := &n.states[s]
		st.mu.Lock()
		switch {
		case route.Primary == n.id:
			//lint:allow lockorder the verified replica install must land before the role flips under st.mu, so a concurrent mutation never sees a promoted shard without its replicated state
			if st.role != RolePrimary && !n.takeTableCrownLocked(s, st, tab) {
				// Refused: keep the current role and replica so a later
				// explicit /promote (digest-verified) can still land. The
				// shard stays unrouted here until the coordinator heals it.
				n.cs.SetRole(s, st.role)
				st.mu.Unlock()
				continue
			}
			st.role = RolePrimary
			st.replica = nil
			st.forward = ""
			n.pruneFollowersLocked(st, route)
		case containsNode(route.Followers, n.id):
			if st.role == RolePrimary {
				// Demoted by the table (failover promoted someone else).
				// Anything unreplicated here was never acked; discard and
				// resync from the new primary.
				st.replica = nil
			}
			st.role = RoleFollower
			st.followers = nil
		default:
			st.role = RoleNone
			st.followers = nil
			st.replica = nil
		}
		n.cs.SetRole(s, st.role)
		st.mu.Unlock()
	}
}

// takeTableCrownLocked decides whether a pushed table naming this node
// primary may actually flip the role. The coordinator promotes
// explicitly (digest-verified) before flipping the table, so normally
// the role already matches and this never runs. Two exceptions are
// legitimate: the initial placement (version 1 — no write can have been
// acked anywhere before the first table existed, so the local seed
// state is the shard's origin), and a follower whose replica holds data
// (its /promote landed but the response was lost) — the replica is
// installed, digest-checked, before the flip. Anything else — a
// missing or empty replica past version 1, a failed install — refuses
// the crown: promoting over stale or empty local state would silently
// drop acknowledged commands. Requires st.mu.
func (n *Node) takeTableCrownLocked(shard int, st *shardState, tab *RouteTable) bool {
	if snap := st.replica.Snapshot(); snap != nil {
		if err := n.srv.InstallShard(snap); err != nil {
			log.Printf("cluster: node %s shard %d: refusing table promote, replica install failed: %v", n.id, shard, err)
			return false
		}
		return true
	}
	if st.role == RoleNone && st.replica == nil && tab.Version == 1 {
		return true
	}
	log.Printf("cluster: node %s shard %d: refusing table promote without replicated state (table v%d)", n.id, shard, tab.Version)
	return false
}

// pruneFollowersLocked drops progress for nodes that stopped following
// the shard. Requires st.mu.
func (n *Node) pruneFollowersLocked(st *shardState, route ShardRoute) {
	if st.followers == nil {
		return
	}
	for id := range st.followers {
		if !containsNode(route.Followers, id) {
			delete(st.followers, id)
		}
	}
}

func containsNode(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// roleOf reports the node's current role for a shard.
func (n *Node) roleOf(shard int) int32 {
	st := &n.states[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.role
}

// TickPrimaries advances every primary (non-migrating) shard by slots
// and replicates the advance — the cluster face of the pd2d ticker.
func (n *Node) TickPrimaries(slots int64) {
	for s := range n.states {
		st := &n.states[s]
		st.mu.Lock()
		tick := st.role == RolePrimary && !st.frozen
		st.mu.Unlock()
		if !tick {
			continue
		}
		if _, err := n.srv.Advance(s, slots); err != nil {
			continue
		}
		_ = n.catchUp(s) // anti-entropy heals stale followers
	}
}

// route is the middleware in front of the serve API: shard-scoped
// requests are answered locally only on the shard's primary; everything
// else is redirected there. Mutations on the primary replicate to every
// follower before the client sees its ack.
func (n *Node) route(w http.ResponseWriter, r *http.Request) {
	shard, op, ok := splitShardPath(r.URL.Path)
	if !ok {
		// Not shard-scoped (list, metrics, healthz, pprof): always local.
		n.srv.Handler().ServeHTTP(w, r)
		return
	}
	tab := n.Table()
	if tab == nil {
		writeClusterError(w, http.StatusServiceUnavailable, "no_route", "node has no routing table yet")
		return
	}
	w.Header().Set(RouteVersionHeader, strconv.FormatInt(tab.Version, 10))
	if shard < 0 || shard >= len(tab.Shards) || shard >= len(n.states) {
		writeClusterError(w, http.StatusNotFound, "unknown_shard",
			fmt.Sprintf("shard %d not in [0,%d)", shard, len(tab.Shards)))
		return
	}
	mutation := r.Method == http.MethodPost && (op == "commands" || op == "advance")
	var body []byte
	if mutation {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			serve.ReplyReadError(w, err)
			return
		}
		st := &n.states[shard]
		if !n.waitGate(st) {
			w.Header().Set("Retry-After", "1")
			writeClusterError(w, http.StatusServiceUnavailable, "migrating",
				"shard hand-off exceeded the gate timeout; retry")
			return
		}
	}
	st := &n.states[shard]
	st.mu.Lock()
	role, forward := st.role, st.forward
	st.mu.Unlock()
	if role != RolePrimary {
		if mutation && forward != "" {
			// Post-hand-off drain: queued writes land on the new primary.
			n.proxy(w, r, forward, body)
			return
		}
		base, err := tab.PrimaryBase(shard)
		if err != nil || base == n.base {
			writeClusterError(w, http.StatusServiceUnavailable, "no_route",
				fmt.Sprintf("shard %d has no reachable primary", shard))
			return
		}
		w.Header().Set("Location", base+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
		return
	}
	if !mutation {
		n.srv.Handler().ServeHTTP(w, r)
		return
	}
	// Primary mutation: run the serve handler into a buffer, replicate,
	// and only then release the ack. A replication failure withholds the
	// ack (the command may exist locally, but the client never saw a 200
	// — "no acknowledged slot lost" is exactly this property).
	r.Body = io.NopCloser(bytes.NewReader(body))
	bw := &bufWriter{}
	n.srv.Handler().ServeHTTP(bw, r)
	if bw.code == http.StatusOK {
		// The handler returned, so the shard has counted this write, and
		// any tail cut at or past this sequence carries it.
		covered, err := n.replicate(shard, n.srv.ShardSeq(shard))
		if err != nil {
			w.Header().Set("Retry-After", "1")
			writeClusterError(w, http.StatusServiceUnavailable, "replication",
				fmt.Sprintf("not acked by all followers: %v", err))
			return
		}
		if covered {
			n.cs.CoveredWrite(shard)
		}
	}
	bw.flush(w)
}

// waitGate blocks while the shard's migration gate is closed; false on
// timeout.
func (n *Node) waitGate(st *shardState) bool {
	//lint:allow determinism the gate timeout is an HTTP-layer deadline; the wall clock never reaches a scheduling decision
	deadline := time.Now().Add(n.gateTO)
	for {
		st.mu.Lock()
		if !st.frozen {
			st.mu.Unlock()
			return true
		}
		ch := st.unfrozen
		st.mu.Unlock()
		//lint:allow determinism remaining wait on the same HTTP-layer deadline
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return false
		}
	}
}

// proxy forwards the (already-read) request to base and relays the
// response with every header the upstream set.
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, base string, body []byte) {
	req, err := http.NewRequest(r.Method, base+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		writeClusterError(w, http.StatusBadGateway, "proxy", err.Error())
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	resp, err := n.client.Do(req)
	if err != nil {
		writeClusterError(w, http.StatusBadGateway, "proxy", err.Error())
		return
	}
	defer func() { _ = resp.Body.Close() }()
	copyHeader(w, resp.Header)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// splitShardPath recognizes /v1/shards/{id} and /v1/shards/{id}/{op};
// ok is false for everything else (including the bare list path).
func splitShardPath(path string) (shard int, op string, ok bool) {
	const prefix = "/v1/shards/"
	if !strings.HasPrefix(path, prefix) {
		return 0, "", false
	}
	rest := path[len(prefix):]
	seg, op, _ := strings.Cut(rest, "/")
	id, err := strconv.Atoi(seg)
	if err != nil {
		return 0, "", false
	}
	return id, op, true
}

// bufWriter buffers a serve response so the ack can be withheld until
// replication succeeds.
type bufWriter struct {
	code int
	hdr  http.Header
	buf  bytes.Buffer
}

func (b *bufWriter) Header() http.Header {
	if b.hdr == nil {
		b.hdr = make(http.Header)
	}
	return b.hdr
}

func (b *bufWriter) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufWriter) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.buf.Write(p)
}

func (b *bufWriter) flush(w http.ResponseWriter) {
	copyHeader(w, b.hdr)
	if b.code == 0 {
		b.code = http.StatusOK
	}
	w.WriteHeader(b.code)
	_, _ = b.buf.WriteTo(w)
}

// copyHeader sets every header in src on w, replacing what w holds
// under the same name, so a relayed answer keeps its Retry-After,
// Location and route version.
func copyHeader(w http.ResponseWriter, src http.Header) {
	for k, vs := range src {
		w.Header()[k] = vs
	}
}

func writeClusterError(w http.ResponseWriter, code int, kind, reason string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: kind, Reason: reason})
}
