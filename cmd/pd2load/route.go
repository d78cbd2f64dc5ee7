// Cluster routing for pd2load: a cached copy of the coordinator's
// versioned routing table (mirrored locally so the generator keeps
// sharing no code with the system under test), per-shard primary
// resolution for the workers and the setup, drain and audit helpers,
// and the -verify differential check that replays every shard's full
// log and compares digests.
package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
)

// routeShard and routeTable mirror the coordinator's wire format
// (internal/cluster.ShardRoute / RouteTable).
type routeShard struct {
	Shard   int    `json:"shard"`
	Primary string `json:"primary"`
}

type routeTable struct {
	Version int64             `json:"version"`
	Shards  []routeShard      `json:"shards"`
	Nodes   map[string]string `json:"nodes"`
}

// maxReroutes caps consecutive 307s without a successful response: a
// redirect loop (or a table that never converges) fails the worker with
// a transport error instead of spinning forever.
const maxReroutes = 32

// resolver maps a shard to the base URL its requests should target.
type resolver func(shard int) (string, error)

// fixedResolver targets every shard at one daemon — the single-node
// default.
func fixedResolver(base string) resolver {
	return func(int) (string, error) { return base, nil }
}

// router caches the coordinator's routing table and answers per-shard
// primary lookups. Refreshes are triggered by 307 responses and by
// X-PD2-Route-Version mismatches; the newest version always wins, so
// concurrent refreshes and stale advertisements cannot roll it back.
type router struct {
	coord  string
	client *http.Client
	mu     sync.Mutex
	tab    routeTable
}

func newRouter(coord string, client *http.Client) *router {
	return &router{coord: coord, client: client}
}

// refresh fetches the coordinator's current table and keeps it if newer
// than the cached one.
func (rt *router) refresh() error {
	var tab routeTable
	if err := getJSON(rt.client, rt.coord+"/v1/cluster/route", &tab); err != nil {
		return fmt.Errorf("route fetch: %w", err)
	}
	rt.mu.Lock()
	if tab.Version > rt.tab.Version {
		rt.tab = tab
	}
	rt.mu.Unlock()
	return nil
}

// waitReady polls until the coordinator publishes a table (the initial
// placement is deferred until enough nodes register).
func (rt *router) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := rt.refresh()
		if err == nil && rt.version() > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("coordinator has not published a routing table")
			}
			return fmt.Errorf("waiting for routing table: %w", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (rt *router) version() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.tab.Version
}

// resolve returns the base URL of the shard's current primary.
func (rt *router) resolve(shard int) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.tab.Version == 0 {
		return "", fmt.Errorf("no routing table cached")
	}
	if shard < 0 || shard >= len(rt.tab.Shards) {
		return "", fmt.Errorf("shard %d not in routing table (%d shards)", shard, len(rt.tab.Shards))
	}
	primary := rt.tab.Shards[shard].Primary
	base := rt.tab.Nodes[primary]
	if base == "" {
		return "", fmt.Errorf("shard %d primary %q has no advertised base", shard, primary)
	}
	return base, nil
}

// noteVersion refreshes the table when a response advertises a newer
// version than the cached one. Older advertisements (a node that has
// not caught up yet) are ignored.
func (rt *router) noteVersion(v int64) {
	rt.mu.Lock()
	stale := v > rt.tab.Version
	rt.mu.Unlock()
	if stale {
		_ = rt.refresh() // best effort; the next 307 retries it
	}
}

// postShard posts v to shard s's op endpoint through the resolver,
// retrying backpressure (429) and transient cluster unavailability
// (503 while a table propagates, a migration gate drains, or a
// follower ack is outstanding) a bounded number of times on the usual
// backoff schedule. Any other status returns immediately.
func postShard(client *http.Client, resolve resolver, s int, op string, v any) (int, []byte, error) {
	rng := stats.NewStream(0, uint64(s))
	var code int
	var body []byte
	for attempt := 0; ; attempt++ {
		base, err := resolve(s)
		if err != nil {
			return 0, nil, err
		}
		code, body, err = post(client, fmt.Sprintf("%s/v1/shards/%d/%s", base, s, op), v)
		if err != nil {
			return 0, nil, err
		}
		if (code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable) || attempt >= 16 {
			return code, body, nil
		}
		time.Sleep(backoffDelay(attempt, 0, rng))
	}
}

// runVerify fetches every shard's complete command log and replays it
// on a fresh engine (serve.VerifyTail): the differential check that a
// shard's live state — wherever routing placed it — is exactly
// core.Replay of its log. Prints one MATCH/MISMATCH line per shard.
func runVerify(client *http.Client, cfg config) error {
	resolve := fixedResolver(cfg.base)
	if cfg.route != "" {
		rt := newRouter(cfg.route, client)
		//lint:allow detflow the clock only paces the table poll; the replayed commands all come from the fetched tail
		if err := rt.waitReady(10 * time.Second); err != nil {
			return err
		}
		resolve = rt.resolve
	}
	bad := 0
	for s := 0; s < cfg.shards; s++ {
		base, err := resolve(s)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		var tl serve.Tail
		if err := getJSON(client, fmt.Sprintf("%s/v1/shards/%d/log?from=0", base, s), &tl); err != nil {
			return fmt.Errorf("shard %d log: %w", s, err)
		}
		digest, err := serve.VerifyTail(&tl)
		if err != nil {
			return fmt.Errorf("shard %d replay: %w", s, err)
		}
		verdict := "MATCH"
		if digest != tl.Digest {
			verdict = "MISMATCH"
			bad++
		}
		fmt.Printf("pd2load: verify shard %d: %d commands over %d slots, digest %016x vs replayed %016x: %s\n",
			s, len(tl.Commands), tl.Now, tl.Digest, digest, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d shard(s) failed digest verification", bad)
	}
	fmt.Printf("pd2load: verified %d shard(s): every digest matches a fresh replay\n", cfg.shards)
	return nil
}
