package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/serve"
)

// Primary-side replication push and the follower/migration endpoints.

// replicate makes every follower of the current table hold what the
// shard held at mutation sequence need (serve.Server.ShardSeq). Under
// replMu, after the role and gate checks, it pushes one tail to exactly
// the followers below need, and it returns at once when none is: a
// write that a concurrent write's push already carried is acked with no
// push of its own (covered is true). It returns nil only when every
// follower acked a tail cut at or past need. A mutation's ack path
// passes the sequence it read after its serve handler returned;
// anti-entropy passes the current one (catchUp).
func (n *Node) replicate(shard int, need int64) (covered bool, err error) {
	st := &n.states[shard]
	st.replMu.Lock()
	defer st.replMu.Unlock()
	//lint:allow lockorder replMu exists to serialize pushes against each other without st.mu: a slow follower round trip blocks only other pushes of the same shard, never reads or the migration gate
	return n.replicatePush(shard, st, need)
}

// catchUp is the anti-entropy push: bring every follower to the shard's
// current sequence. Stale followers are always pushed, so it heals
// failed pushes; an advance counts as a mutation, so it carries tick
// progress; and an idle shard whose followers acked its current
// sequence cuts no tail.
func (n *Node) catchUp(shard int) error {
	_, err := n.replicate(shard, n.srv.ShardSeq(shard))
	return err
}

// replicatePush does the push with st.replMu held. It reads the table
// under the lock, so a follower that a newer table added is pushed even
// when the write it serves was carried to the others already. It cuts
// one tail from the slowest target's index and pushes it to every
// target at once, so a write waits for the slowest follower rather than
// the sum of them. st.mu is taken only to snapshot and reconcile
// follower progress around the network round trips, so reads and the
// gate path never wait on a follower, and two transient primaries
// pushing the same shard at each other cannot deadlock (handleRepl
// needs only st.mu, which is free mid-push).
func (n *Node) replicatePush(shard int, st *shardState, need int64) (bool, error) {
	type target struct {
		id string
		fs *followerState // the entry the push reconciles into
		w  followerState  // working copy the push updates
	}
	tab := n.Table()
	if tab == nil || shard >= len(tab.Shards) {
		return false, nil
	}
	st.mu.Lock()
	if st.role != RolePrimary {
		st.mu.Unlock()
		return false, fmt.Errorf("cluster: shard %d is no longer primary here", shard)
	}
	if st.frozen {
		st.mu.Unlock()
		return false, fmt.Errorf("cluster: shard %d is handing off", shard)
	}
	if st.followers == nil {
		st.followers = make(map[string]*followerState)
	}
	var targets []target
	followers, minAcked := 0, -1
	for _, fid := range tab.Shards[shard].Followers {
		if fid == n.id {
			continue
		}
		followers++
		fs, ok := st.followers[fid]
		if !ok {
			fs = &followerState{seq: -1}
			st.followers[fid] = fs
		}
		if !fs.behind(need) {
			continue
		}
		targets = append(targets, target{id: fid, fs: fs, w: *fs})
		if minAcked < 0 || fs.acked < minAcked {
			minAcked = fs.acked
		}
	}
	st.mu.Unlock()
	if followers == 0 {
		n.cs.SetReplLag(shard, 0)
		return false, nil
	}
	if len(targets) == 0 {
		return true, nil // every follower acked a tail at or past need
	}
	tail, err := n.srv.ShardTail(shard, minAcked)
	if err != nil {
		// The log may have been replaced shorter than acked (reinstall);
		// fall back to a complete tail.
		tail, err = n.srv.ShardTail(shard, 0)
		if err != nil {
			return false, err
		}
	}
	n.cs.PushRound(shard)
	errs := make([]error, len(targets))
	push := func(i int) {
		tg := &targets[i]
		if base := tab.Nodes[tg.id]; base == "" {
			errs[i] = errors.New("no known base")
		} else {
			errs[i] = n.pushToFollower(shard, base, tail, &tg.w)
		}
		tg.w.stale = errs[i] != nil
	}
	// Each push owns its target and error slot. The last one runs here,
	// where the caller would otherwise only wait.
	var wg sync.WaitGroup
	for i := 0; i < len(targets)-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			push(i)
		}()
	}
	push(len(targets) - 1)
	wg.Wait()
	var firstErr error
	for i := range targets {
		if errs[i] != nil && firstErr == nil {
			firstErr = fmt.Errorf("follower %s: %w", targets[i].id, errs[i])
		}
	}
	// Reconcile into the entries the push started from. A role change
	// (demotion, promotion, a new shard instance) or a table that dropped
	// the follower replaced or deleted its entry, and then these acks
	// describe a follower set or shard instance that no longer exists.
	// The lag is from each follower's last acked clock, so one whose push
	// failed counts with the lag it really has.
	var maxLag int64
	st.mu.Lock()
	for i := range targets {
		if st.followers[targets[i].id] == targets[i].fs {
			*targets[i].fs = targets[i].w
		}
	}
	for _, fs := range st.followers {
		if lag := tail.Now - fs.now; lag > maxLag {
			maxLag = lag
		}
	}
	st.mu.Unlock()
	n.cs.SetReplLag(shard, maxLag)
	return false, firstErr
}

// pushToFollower sends the sub-tail the follower needs, following at
// most a few want-redirects (gap or refused pushes).
func (n *Node) pushToFollower(shard int, base string, tail *serve.Tail, fs *followerState) error {
	from := fs.acked
	for attempt := 0; attempt < 3; attempt++ {
		sub, err := subTail(tail, from)
		if err != nil {
			// The follower wants history older than the fetched tail; cut a
			// fresh one from its index.
			sub, err = n.srv.ShardTail(shard, from)
			if err != nil {
				return err
			}
		}
		ack, status, err := n.postTail(base, shard, sub)
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK:
			fs.acked, fs.now, fs.seq = ack.Acked, ack.Now, sub.Seq()
			return nil
		case http.StatusConflict:
			if ack.Want < 0 {
				return fmt.Errorf("push refused (receiver believes it is primary)")
			}
			from = ack.Want
		case http.StatusRequestEntityTooLarge:
			return fmt.Errorf("push answered 413: the tail is over the follower's %d-byte /repl limit", maxReplBody)
		default:
			return fmt.Errorf("push answered %d", status)
		}
	}
	return fmt.Errorf("push did not converge after 3 attempts")
}

// subTail narrows a tail to start at `from` without refetching; errors
// when from precedes the tail's coverage.
func subTail(t *serve.Tail, from int) (*serve.Tail, error) {
	if from < t.From {
		return nil, fmt.Errorf("cluster: tail covers [%d,%d), need %d", t.From, t.Total, from)
	}
	if from == t.From {
		return t, nil
	}
	if from > t.Total {
		return nil, fmt.Errorf("cluster: from %d past log end %d", from, t.Total)
	}
	c := *t
	c.From = from
	c.Commands = t.Commands[from-t.From:]
	return &c, nil
}

// maxReplBody caps a push body. A complete tail passes it at about 1.2
// million commands, and from then on every complete push of the shard
// is refused: no log gets shorter until compaction (ROADMAP item 3)
// bounds it (docs/CLUSTER.md, failure matrix).
const maxReplBody = 64 << 20

// postTail POSTs one tail to a peer's repl endpoint, encoded by the tail
// codec.
func (n *Node) postTail(base string, shard int, t *serve.Tail) (replAck, int, error) {
	body, err := t.MarshalJSON()
	if err != nil {
		return replAck{}, 0, err
	}
	url := fmt.Sprintf("%s/v1/cluster/shards/%d/repl", base, shard)
	resp, err := n.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return replAck{}, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	var ack replAck
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
		b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		if err == nil {
			ack, err = parseReplAck(b)
		}
		if err != nil {
			return replAck{}, resp.StatusCode, err
		}
	}
	return ack, resp.StatusCode, nil
}

// handleRepl is the follower half of the push: fold the tail into the
// local replica and ack with the new log length, or answer 409 with the
// index this node wants. A body over maxReplBody is a 413, refused
// unread when its Content-Length says so.
func (n *Node) handleRepl(w http.ResponseWriter, r *http.Request) {
	shard, ok := n.clusterShard(w, r)
	if !ok {
		return
	}
	if r.ContentLength > maxReplBody {
		serve.ReplyReadError(w, &http.MaxBytesError{Limit: maxReplBody})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplBody))
	if err != nil {
		serve.ReplyReadError(w, err)
		return
	}
	var t serve.Tail
	if err := t.UnmarshalJSON(body); err != nil {
		writeClusterError(w, http.StatusBadRequest, "invalid", "decoding tail: "+err.Error())
		return
	}
	st := &n.states[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.role == RolePrimary {
		// Split-brain guard: a primary never accepts pushes.
		writeReplAck(w, http.StatusConflict, replAck{Want: -1})
		return
	}
	if st.replica == nil {
		// First contact (fresh follower or incoming migration stream).
		st.replica = NewReplica(shard)
	}
	if err := st.replica.Apply(&t); err != nil {
		if want, ok := wantIndex(err); ok {
			writeReplAck(w, http.StatusConflict, replAck{Want: want})
			return
		}
		// Divergence (digest mismatch or replay failure): drop the replica
		// and ask for a full resync.
		log.Printf("cluster: node %s shard %d replica reset: %v", n.id, shard, err)
		st.replica = nil
		writeReplAck(w, http.StatusConflict, replAck{Want: 0})
		return
	}
	n.cs.SetReplLag(shard, 0) // in lockstep with the primary's push
	writeReplAck(w, http.StatusOK, replAck{Acked: st.replica.Len(), Now: st.replica.Now()})
}

// writeReplAck answers a push with the ack json.Encoder would write,
// appended by hand: the primary waits for one on every replicated write.
func writeReplAck(w http.ResponseWriter, code int, a replAck) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(a.appendJSON(make([]byte, 0, 64)))
}

// handlePromote installs this node's replica as the live shard and
// takes the primary role. Idempotent: an already-primary node re-acks
// with its current state. The install path replays the full log and
// verifies the engine and books digests (serve.InstallShard), so a
// diverged replica can never take over silently.
func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	shard, ok := n.clusterShard(w, r)
	if !ok {
		return
	}
	st := &n.states[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.role == RolePrimary {
		//lint:allow lockorder the idempotent re-ack reads the tail under st.mu so the answered state cannot race a demotion
		tail, err := n.srv.ShardTail(shard, 0)
		if err != nil {
			writeClusterError(w, http.StatusInternalServerError, "promote", err.Error())
			return
		}
		writeJSONStatus(w, http.StatusOK, PromoteResponse{Shard: shard, Digest: tail.Digest, Now: tail.Now, Log: tail.Total})
		return
	}
	snap := st.replica.Snapshot()
	if snap == nil {
		writeClusterError(w, http.StatusConflict, "no_replica",
			fmt.Sprintf("shard %d has no replicated state to promote", shard))
		return
	}
	//lint:allow lockorder the verified install must land before the role flips to primary, so it runs under st.mu
	if err := n.srv.InstallShard(snap); err != nil {
		writeClusterError(w, http.StatusConflict, "promote", "install: "+err.Error())
		return
	}
	st.role = RolePrimary
	st.replica = nil
	st.forward = ""
	st.followers = make(map[string]*followerState)
	n.cs.SetRole(shard, RolePrimary)
	writeJSONStatus(w, http.StatusOK, PromoteResponse{Shard: shard, Digest: snap.Digest, Now: snap.Now, Log: snap.Total})
}

// handleMigrate hands the shard to the target node: stream the full
// state while writes continue, freeze the gate, push the final delta,
// promote the target (digest-checked), then demote and drain queued
// writes to the new primary. On any failure the gate reopens and the
// shard stays here.
func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	shard, ok := n.clusterShard(w, r)
	if !ok {
		return
	}
	var req migrateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeClusterError(w, http.StatusBadRequest, "invalid", "decoding migrate: "+err.Error())
		return
	}
	if req.TargetBase == "" || req.TargetID == n.id {
		writeClusterError(w, http.StatusBadRequest, "invalid", "migrate needs a target other than the source")
		return
	}
	st := &n.states[shard]
	st.mu.Lock()
	if st.role != RolePrimary || st.frozen || st.migrating {
		st.mu.Unlock()
		writeClusterError(w, http.StatusConflict, "not_primary",
			fmt.Sprintf("shard %d is not an idle primary here", shard))
		return
	}
	// Claim the shard for this migration so a second concurrent migrate
	// cannot start a duplicate warm stream; the hand-off itself
	// re-validates role and gate after it reacquires st.mu.
	st.migrating = true
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.migrating = false
		st.mu.Unlock()
	}()

	// Phase 1 — warm stream outside the gate: writes keep flowing while
	// the bulk of the log crosses over.
	fs := &followerState{}
	warm := func() error {
		for round := 0; round < 5; round++ {
			tail, err := n.srv.ShardTail(shard, fs.acked)
			if err != nil {
				tail, err = n.srv.ShardTail(shard, 0)
				if err != nil {
					return err
				}
			}
			if err := n.pushToFollower(shard, req.TargetBase, tail, fs); err != nil {
				return err
			}
			if fs.acked >= tail.Total {
				return nil
			}
		}
		return fmt.Errorf("warm stream did not converge")
	}
	if err := warm(); err != nil {
		n.cs.MigrationDone(false)
		writeClusterError(w, http.StatusBadGateway, "migrate", "warm stream: "+err.Error())
		return
	}

	prom, stage, err := n.migrateHandoff(shard, &req, fs)
	if err != nil {
		n.cs.MigrationDone(false)
		log.Printf("cluster: node %s shard %d migration to %s failed at %s: %v", n.id, shard, req.TargetID, stage, err)
		writeClusterError(w, http.StatusBadGateway, "migrate", stage+": "+err.Error())
		return
	}
	n.cs.SetRole(shard, RoleFollower)
	n.cs.MigrationDone(true)
	writeJSONStatus(w, http.StatusOK, prom)
}

// migrateHandoff is phase 2 of the migration: freeze the gate, push the
// final delta, promote the target (digest-checked), then demote this
// node to a forwarding follower. New writes queue at the gate;
// in-flight ones either made the final tail or fail their replication
// ack (so nothing acked can be missing on the target). On error the
// deferred reopen leaves the shard primary here, and the returned stage
// names the failed step. st.mu is held for the whole hand-off so queued
// writes observe either the old primary or the demoted forwarder, never
// a half-migrated shard.
func (n *Node) migrateHandoff(shard int, req *migrateRequest, fs *followerState) (PromoteResponse, string, error) {
	st := &n.states[shard]
	st.mu.Lock()
	froze := false
	defer func() {
		if froze {
			st.frozen = false
			close(st.unfrozen)
		}
		st.mu.Unlock()
	}()
	if st.role != RolePrimary || st.frozen {
		// The shard was demoted (failover, table push) or another gate
		// closed while the warm stream ran without the lock; handing off
		// now could cut a stale final tail or promote a second primary.
		return PromoteResponse{}, "handoff", fmt.Errorf("shard %d is no longer an idle primary here", shard)
	}
	st.frozen = true
	st.unfrozen = make(chan struct{})
	froze = true
	// The final delta and promote round trips deliberately run with
	// st.mu held: the gate freeze IS the serialization point, and every
	// other acquirer (mutations, replication pushes) must queue behind
	// it until the hand-off lands or is rolled back.
	//lint:allow lockorder the migration gate holds st.mu across the final delta by design; queued writers wait on st.unfrozen
	final, err := n.srv.ShardTail(shard, fs.acked)
	if err != nil {
		return PromoteResponse{}, "final tail", err
	}
	//lint:allow lockorder the final push runs under the closed gate so no acked write can miss the target
	if err := n.pushToFollower(shard, req.TargetBase, final, fs); err != nil {
		return PromoteResponse{}, "final push", err
	}
	if fs.acked != final.Total {
		return PromoteResponse{}, "final push", fmt.Errorf("target acked %d of %d", fs.acked, final.Total)
	}
	prom, err := postPromote(n.client, req.TargetBase, shard)
	if err != nil {
		return PromoteResponse{}, "promote", err
	}
	if prom.Digest != final.Digest || prom.Log != final.Total {
		return PromoteResponse{}, "promote", fmt.Errorf("target took over at (log=%d, %016x), expected (log=%d, %016x)",
			prom.Log, prom.Digest, final.Total, final.Digest)
	}
	// Hand-off done: demote, keep a warm replica seeded from the local
	// log (no network round trip), and drain queued writes forward.
	st.role = RoleFollower
	st.followers = nil
	st.forward = req.TargetBase
	rep := NewReplica(shard)
	//lint:allow lockorder seeding the warm replica from the local log happens before the gate reopens so the demoted state is complete
	if full, err := n.srv.ShardTail(shard, 0); err == nil {
		if err := rep.Apply(full); err == nil {
			st.replica = rep
		} else {
			st.replica = nil
		}
	}
	return prom, "", nil
}

// postPromote asks the node at base to take over the shard from its
// replica: the last step of a migration hand-off, and the coordinator's
// failover.
func postPromote(client *http.Client, base string, shard int) (PromoteResponse, error) {
	url := fmt.Sprintf("%s/v1/cluster/shards/%d/promote", base, shard)
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return PromoteResponse{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return PromoteResponse{}, fmt.Errorf("promote answered %d (%s: %s)", resp.StatusCode, e.Error, e.Reason)
	}
	var prom PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&prom); err != nil {
		return PromoteResponse{}, err
	}
	return prom, nil
}

// handleRoutePush installs a table pushed by the coordinator.
func (n *Node) handleRoutePush(w http.ResponseWriter, r *http.Request) {
	var tab RouteTable
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&tab); err != nil {
		writeClusterError(w, http.StatusBadRequest, "invalid", "decoding route table: "+err.Error())
		return
	}
	n.UpdateTable(&tab)
	cur := n.Table()
	w.Header().Set(RouteVersionHeader, strconv.FormatInt(cur.Version, 10))
	writeJSONStatus(w, http.StatusOK, map[string]int64{"version": cur.Version})
}

// handleRouteGet serves the node's cached table, so clients can refresh
// from any node they already talk to.
func (n *Node) handleRouteGet(w http.ResponseWriter, r *http.Request) {
	tab := n.Table()
	if tab == nil {
		writeClusterError(w, http.StatusServiceUnavailable, "no_route", "node has no routing table yet")
		return
	}
	w.Header().Set(RouteVersionHeader, strconv.FormatInt(tab.Version, 10))
	writeJSONStatus(w, http.StatusOK, tab)
}

// clusterShard parses the {shard} path value for the cluster endpoints.
func (n *Node) clusterShard(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || id < 0 || id >= len(n.states) {
		writeClusterError(w, http.StatusNotFound, "unknown_shard",
			fmt.Sprintf("shard %q not in [0,%d)", r.PathValue("shard"), len(n.states)))
		return 0, false
	}
	return id, true
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
