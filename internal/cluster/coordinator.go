package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// CoordinatorOptions configures the cluster coordinator.
type CoordinatorOptions struct {
	Shards   int // global shard count
	Replicas int // followers per shard; default 1
	// MinNodes gates the initial placement: the table stays unpublished
	// until this many nodes registered. Default 1.
	MinNodes int
	// HeartbeatMisses consecutive failed health checks declare a node
	// dead and trigger failover. Default 2.
	HeartbeatMisses int
	Client          *http.Client
}

// nodeInfo is the coordinator's registry entry for one node.
type nodeInfo struct {
	base   string
	missed int
	dead   bool
}

// A Coordinator owns the routing table: it registers nodes, computes
// the rendezvous placement once MinNodes joined, pushes every table
// change to all live nodes, orchestrates migrations, and health-checks
// nodes to drive promote-on-primary-death failover.
type Coordinator struct {
	opts   CoordinatorOptions
	client *http.Client
	mux    *http.ServeMux

	mu    sync.Mutex
	nodes map[string]*nodeInfo
	table *RouteTable // nil until the first placement

	stopc chan struct{}
	wg    sync.WaitGroup
}

// NewCoordinator builds a coordinator; Start launches the heartbeat.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.MinNodes < 1 {
		opts.MinNodes = 1
	}
	if opts.HeartbeatMisses < 1 {
		opts.HeartbeatMisses = 2
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 5 * time.Second}
	}
	c := &Coordinator{
		opts:   opts,
		client: opts.Client,
		nodes:  make(map[string]*nodeInfo),
		stopc:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/nodes", c.handleRegister)
	mux.HandleFunc("GET /v1/cluster/route", c.handleRoute)
	mux.HandleFunc("POST /v1/cluster/migrate", c.handleMigrate)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	c.mux = mux
	return c, nil
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Start launches the heartbeat loop (default interval 500ms).
func (c *Coordinator) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.stopc:
				return
			case <-t.C:
				c.CheckNodes()
			}
		}
	}()
}

// Stop halts the heartbeat loop.
func (c *Coordinator) Stop() {
	close(c.stopc)
	c.wg.Wait()
}

// Table returns a copy of the current routing table (nil before the
// first placement).
func (c *Coordinator) Table() *RouteTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.table == nil {
		return nil
	}
	return c.table.Clone()
}

// aliveLocked lists the live node IDs, sorted for determinism.
func (c *Coordinator) aliveLocked() []string {
	ids := make([]string, 0, len(c.nodes))
	for id, ni := range c.nodes {
		if !ni.dead {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// publishLocked bumps the version, snapshots the node bases into the
// table, and returns (table copy, push list). Callers push outside the
// lock.
func (c *Coordinator) publishLocked() (*RouteTable, []string) {
	c.table.Version++
	c.table.Nodes = make(map[string]string, len(c.nodes))
	bases := make([]string, 0, len(c.nodes))
	for _, id := range c.aliveLocked() {
		c.table.Nodes[id] = c.nodes[id].base
		bases = append(bases, c.nodes[id].base)
	}
	return c.table.Clone(), bases
}

// pushTable POSTs the table to every base; failures are logged and
// healed by the next heartbeat's re-push.
func (c *Coordinator) pushTable(tab *RouteTable, bases []string) {
	body, err := json.Marshal(tab)
	if err != nil {
		return
	}
	for _, base := range bases {
		resp, err := c.client.Post(base+"/v1/cluster/route", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Printf("cluster: coordinator: pushing route v%d to %s: %v", tab.Version, base, err)
			continue
		}
		_ = resp.Body.Close()
	}
}

// handleRegister admits a node (idempotent; a changed base re-places
// the node) and answers with the current table.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeClusterError(w, http.StatusBadRequest, "invalid", "decoding register: "+err.Error())
		return
	}
	if req.ID == "" || req.Base == "" {
		writeClusterError(w, http.StatusBadRequest, "invalid", "register needs id and base")
		return
	}
	req.Base = strings.TrimRight(req.Base, "/")
	c.mu.Lock()
	ni := c.nodes[req.ID]
	if ni == nil {
		ni = &nodeInfo{}
		c.nodes[req.ID] = ni
	}
	ni.base = req.Base
	ni.missed = 0
	ni.dead = false
	var tab *RouteTable
	var bases []string
	switch {
	case c.table == nil && len(c.aliveLocked()) >= c.opts.MinNodes:
		c.table = &RouteTable{Shards: Place(c.aliveLocked(), c.opts.Shards, c.opts.Replicas)}
		tab, bases = c.publishLocked()
	case c.table != nil:
		// A join never moves a primary (that would need a migration); it
		// only refreshes follower sets.
		c.table.Shards = Rebalance(c.table.Shards, c.aliveLocked(), c.opts.Replicas)
		tab, bases = c.publishLocked()
	}
	reply := c.table
	if reply == nil {
		reply = &RouteTable{} // version 0: not placed yet
	}
	out, _ := json.Marshal(reply)
	c.mu.Unlock()
	if tab != nil {
		c.pushTable(tab, bases)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}

// handleRoute serves the table with its version header; 503 until the
// initial placement happened.
func (c *Coordinator) handleRoute(w http.ResponseWriter, r *http.Request) {
	tab := c.Table()
	if tab == nil {
		writeClusterError(w, http.StatusServiceUnavailable, "no_route",
			fmt.Sprintf("waiting for %d nodes to register", c.opts.MinNodes))
		return
	}
	w.Header().Set(RouteVersionHeader, strconv.FormatInt(tab.Version, 10))
	writeJSONStatus(w, http.StatusOK, tab)
}

// MigrateShard moves one shard's primary to the target node: the
// source primary streams, freezes, digest-checks, and promotes (its
// /migrate endpoint); on success the coordinator flips the table and
// pushes it everywhere.
func (c *Coordinator) MigrateShard(shard int, to string) (*PromoteResponse, error) {
	c.mu.Lock()
	if c.table == nil || shard < 0 || shard >= len(c.table.Shards) {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: no route for shard %d", shard)
	}
	target := c.nodes[to]
	if target == nil || target.dead {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: target node %q is not alive", to)
	}
	src := c.table.Shards[shard].Primary
	if src == to {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: shard %d is already on %s", shard, to)
	}
	srcBase := c.table.Nodes[src]
	targetBase := target.base
	c.mu.Unlock()
	if srcBase == "" {
		return nil, fmt.Errorf("cluster: shard %d primary %q has no base", shard, src)
	}

	body, _ := json.Marshal(migrateRequest{TargetID: to, TargetBase: targetBase})
	url := fmt.Sprintf("%s/v1/cluster/shards/%d/migrate", srcBase, shard)
	resp, err := c.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: migrate shard %d: %w", shard, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		var e struct{ Error, Reason string }
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("cluster: migrate shard %d: %s (%s: %s)", shard, resp.Status, e.Error, e.Reason)
	}
	var prom PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&prom); err != nil {
		return nil, fmt.Errorf("cluster: migrate shard %d reply: %w", shard, err)
	}

	c.mu.Lock()
	route := placeOne(c.aliveLocked(), shard, c.opts.Replicas, to)
	// Pin the digest-verified promotee even if a concurrent heartbeat
	// marked it dead mid-migration — placeOne would otherwise fall back
	// to rank order and crown a node without the shard's state. If the
	// target really is dead, the next round fails over from its
	// followers.
	route.Primary = to
	c.table.Shards[shard] = route
	tab, bases := c.publishLocked()
	c.mu.Unlock()
	c.pushTable(tab, bases)
	return &prom, nil
}

// handleMigrate is the HTTP face of MigrateShard.
func (c *Coordinator) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Shard int    `json:"shard"`
		To    string `json:"to"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeClusterError(w, http.StatusBadRequest, "invalid", "decoding migrate: "+err.Error())
		return
	}
	prom, err := c.MigrateShard(req.Shard, req.To)
	if err != nil {
		writeClusterError(w, http.StatusBadGateway, "migrate", err.Error())
		return
	}
	writeJSONStatus(w, http.StatusOK, prom)
}

// CheckNodes runs one heartbeat round: health-check every live node,
// fail over the shards of any dead primary, and re-push the current
// table (heals nodes that missed a push). A shard's primary only moves
// in the table after a successful digest-verified promote; shards whose
// promotion failed (or that have no live follower) stay routed at their
// dead primary — effectively unrouted — and are retried every round, so
// a node without replicated state never inherits a shard by placement
// rank alone.
func (c *Coordinator) CheckNodes() {
	c.mu.Lock()
	type probe struct {
		id   string
		base string
	}
	probes := make([]probe, 0, len(c.nodes))
	for id, ni := range c.nodes {
		if !ni.dead {
			probes = append(probes, probe{id, ni.base})
		}
	}
	c.mu.Unlock()
	sort.Slice(probes, func(i, j int) bool { return probes[i].id < probes[j].id })

	healthy := make(map[string]bool, len(probes))
	for _, p := range probes {
		resp, err := c.client.Get(p.base + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
		}
		healthy[p.id] = err == nil && resp.StatusCode == http.StatusOK
	}

	c.mu.Lock()
	var died []string
	for id, ok := range healthy {
		ni := c.nodes[id]
		if ni == nil || ni.dead {
			continue
		}
		if ok {
			ni.missed = 0
			continue
		}
		ni.missed++
		if ni.missed >= c.opts.HeartbeatMisses {
			ni.dead = true
			died = append(died, id)
		}
	}
	if c.table == nil {
		c.mu.Unlock()
		return
	}
	sort.Strings(died)
	if len(died) > 0 {
		log.Printf("cluster: coordinator: nodes %v declared dead, failing over", died)
	}
	// Orphaned shards: the table primary is dead — newly died this round
	// or still dead from an earlier round whose promotion failed. Promote
	// a surviving follower from the CURRENT table, because those
	// followers hold the replicated state; the promote endpoint
	// digest-verifies the install before the node takes the role.
	deadSet := make(map[string]bool, len(c.nodes))
	for id, ni := range c.nodes {
		if ni.dead {
			deadSet[id] = true
		}
	}
	type promotion struct {
		shard int
		id    string
		base  string
		rest  []string // fallback followers
	}
	var promos []promotion
	for s := range c.table.Shards {
		route := &c.table.Shards[s]
		if !deadSet[route.Primary] {
			continue
		}
		var cands []promotion
		for _, f := range route.Followers {
			ni := c.nodes[f]
			if ni != nil && !ni.dead {
				cands = append(cands, promotion{shard: s, id: f, base: ni.base})
			}
		}
		if len(cands) == 0 {
			log.Printf("cluster: coordinator: shard %d lost its primary %s and has no live follower; unrouted until one registers", s, route.Primary)
			continue
		}
		p := cands[0]
		for _, alt := range cands[1:] {
			p.rest = append(p.rest, alt.id)
		}
		promos = append(promos, p)
	}
	if len(died) == 0 && len(promos) == 0 {
		// Re-push the unchanged table so nodes that missed an update
		// converge.
		tab := c.table.Clone()
		var bases []string
		for _, id := range c.aliveLocked() {
			bases = append(bases, c.nodes[id].base)
		}
		c.mu.Unlock()
		c.pushTable(tab, bases)
		return
	}
	c.mu.Unlock()

	promoted := make(map[int]string, len(promos))
	for _, p := range promos {
		if _, err := postPromote(c.client, p.base, p.shard); err == nil {
			promoted[p.shard] = p.id
			continue
		} else {
			log.Printf("cluster: coordinator: promoting %s for shard %d: %v", p.id, p.shard, err)
		}
		for _, alt := range p.rest {
			c.mu.Lock()
			ni := c.nodes[alt]
			base := ""
			if ni != nil && !ni.dead {
				base = ni.base
			}
			c.mu.Unlock()
			if base == "" {
				continue
			}
			if _, err := postPromote(c.client, base, p.shard); err == nil {
				promoted[p.shard] = alt
				break
			}
		}
	}

	c.mu.Lock()
	for s, id := range promoted {
		c.table.Shards[s].Primary = id
	}
	// Recompute follower sets only for shards with a live primary;
	// orphaned shards keep their old route untouched (and are retried
	// next round) so placement rank alone can never crown a node that
	// holds no replica.
	aliveIDs := c.aliveLocked()
	aliveSet := make(map[string]bool, len(aliveIDs))
	for _, id := range aliveIDs {
		aliveSet[id] = true
	}
	for s := range c.table.Shards {
		if !aliveSet[c.table.Shards[s].Primary] {
			continue
		}
		c.table.Shards[s] = placeOne(aliveIDs, s, c.opts.Replicas, c.table.Shards[s].Primary)
	}
	var tab *RouteTable
	var bases []string
	if len(died) > 0 || len(promoted) > 0 {
		tab, bases = c.publishLocked()
	} else {
		// Every promotion failed: nothing moved, so re-push the current
		// table without burning a version.
		tab = c.table.Clone()
		for _, id := range aliveIDs {
			bases = append(bases, c.nodes[id].base)
		}
	}
	c.mu.Unlock()
	c.pushTable(tab, bases)
}
