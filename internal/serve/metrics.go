package serve

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/frac"
)

// counters are the shard loop's event counts. Only the loop writes
// them, so they are plain integers; handlers and /metrics read the copy
// the loop last published in the shard's view.
type counters struct {
	accepted      int64 // commands admitted (property (W) passed)
	rejectedW     int64 // 409s carrying weight headroom
	rejectedOther int64 // 404/409 conflicts and unknowns
	applied       int64 // commands applied to the engine
	deferred      int64 // boundary deferrals (rules L / J)
	failedApplies int64 // engine refusals of admitted commands (must stay 0)
	advances      int64 // slots stepped
	// mutations counts the command records and advances the shard has
	// handled, bumped on the shard goroutine before it publishes and
	// replies: the shard's mutation sequence (Server.ShardSeq, Tail.Seq).
	mutations int64

	// Anomaly counters: slot-boundary windows in which the shard was
	// observably degrading. They quantify *graceful* degradation — the
	// pathological-workload tests assert these fire while failedApplies
	// stays zero. Bumped by noteAnomalies except for deferred-join peak,
	// which flush maintains.
	anomRejectSpikes int64 // windows whose rejection rate spiked (see anomalyMinDecisions)
	anomDriftExcur   int64 // boundaries where a task's |drift| exceeded the configured bound
	anomBackpressure int64 // windows with fresh 429 backpressure
	deferredJoinPeak int64 // high-watermark of the condition-J join queue
}

// requestCounts are the counts bumped outside the loop, read live:
// handlers count the requests a full mailbox refuses and the status
// reads they answer from the view; the loop counts the ?tasks=1 reads
// it answers.
type requestCounts struct {
	backpressured atomic.Int64 // 429s from a full mailbox
	queries       atomic.Int64 // status queries served
}

// fill copies the counts into a wire status.
func (c *counters) fill(st *ShardStatus, rc *requestCounts) {
	st.Accepted = c.accepted
	st.RejectedW = c.rejectedW
	st.RejectedOther = c.rejectedOther
	st.Backpressured = rc.backpressured.Load()
	st.Applied = c.applied
	st.Deferred = c.deferred
	st.FailedApplies = c.failedApplies
	st.Advances = c.advances
	st.Queries = rc.queries.Load()
	st.AnomalyRejectSpikes = c.anomRejectSpikes
	st.AnomalyDriftExcursions = c.anomDriftExcur
	st.AnomalyBackpressureSpikes = c.anomBackpressure
	st.DeferredJoinPeak = c.deferredJoinPeak
}

// view is what a shard's loop last published: the status of the last
// slot boundary and, as of the last record the loop answered, the
// books' requested total, the staged batch length and the loop's
// counters. Only the loop stores it, after every command record and
// boundary and before it replies, so a read sent after any reply sees
// that record, and one store covers every field, so a read never mixes
// two records. Status reads and /metrics copy it instead of taking a
// mailbox record. A mutex rather than an atomic pointer: publishing a
// fresh value per record through a pointer would allocate on the write
// path.
type view struct {
	mu     sync.Mutex
	status *ShardStatus // never written once published
	total  frac.Rat
	batch  int
	ctr    counters
}

// store publishes the loop's state; st, when not nil, replaces the
// boundary status.
func (v *view) store(st *ShardStatus, total frac.Rat, batch int, ctr *counters) {
	v.mu.Lock()
	if st != nil {
		v.status = st
	}
	v.total, v.batch, v.ctr = total, batch, *ctr
	v.mu.Unlock()
}

// read returns a copy of the published status carrying the books'
// total and headroom, the batch length and the loop's counters, with
// the request counts read live.
func (v *view) read(rc *requestCounts) *ShardStatus {
	v.mu.Lock()
	st := *v.status
	total := v.total
	st.PendingBatch = v.batch
	v.ctr.fill(&st, rc)
	v.mu.Unlock()
	st.RequestedWt = total.String()
	st.Headroom = frac.FromInt(int64(st.M)).Sub(total).String()
	return &st
}

// seq returns the published mutation sequence.
func (v *view) seq() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.ctr.mutations
}

// Cluster role codes published on pd2d_cluster_role{shard}: 0 when the
// node does not host the shard, 1 when it follows, 2 when it is the
// primary. The JSON status carries the same fact as a string.
const (
	RoleNone int32 = iota
	RoleFollower
	RolePrimary
)

// RoleName renders a role code for the JSON status.
func RoleName(code int32) string {
	switch code {
	case RoleFollower:
		return "follower"
	case RolePrimary:
		return "primary"
	}
	return "none"
}

// ClusterStats is the per-node cluster observability surface the
// cluster layer feeds and /metrics + the shard status JSON read:
// per-shard role and replication lag gauges, per-shard push and
// covered-write counters, and node-wide migration counters. All fields
// are atomics — the writers are the cluster node's
// reconcile/replication goroutines, the readers are handlers.
type ClusterStats struct {
	roles          []atomic.Int32 // RoleNone / RoleFollower / RolePrimary per shard
	replLag        []atomic.Int64 // slots the furthest-behind replica trails by
	replPushes     []atomic.Int64 // push rounds run as primary
	replCovered    []atomic.Int64 // writes acked with no push of their own
	migrationsOK   atomic.Int64
	migrationsFail atomic.Int64
}

// NewClusterStats sizes the gauges for a node hosting `shards` slots.
func NewClusterStats(shards int) *ClusterStats {
	return &ClusterStats{
		roles:       make([]atomic.Int32, shards),
		replLag:     make([]atomic.Int64, shards),
		replPushes:  make([]atomic.Int64, shards),
		replCovered: make([]atomic.Int64, shards),
	}
}

// SetRole publishes the node's role for a shard.
func (cs *ClusterStats) SetRole(shard int, role int32) {
	if shard >= 0 && shard < len(cs.roles) {
		cs.roles[shard].Store(role)
	}
}

// SetReplLag publishes the replication lag, in slots, for a shard: on a
// primary the furthest-behind follower, counted from the clock it last
// acked (so a dead follower's lag keeps growing), on a follower its own
// lag behind the last pushed tail.
func (cs *ClusterStats) SetReplLag(shard int, slots int64) {
	if shard >= 0 && shard < len(cs.replLag) {
		cs.replLag[shard].Store(slots)
	}
}

// PushRound counts one replication push round for a shard: one tail
// cut and pushed to every follower that had not acked it.
func (cs *ClusterStats) PushRound(shard int) {
	if shard >= 0 && shard < len(cs.replPushes) {
		cs.replPushes[shard].Add(1)
	}
}

// CoveredWrite counts one write acked with no push of its own, because
// every follower had already acked a tail that carried it.
func (cs *ClusterStats) CoveredWrite(shard int) {
	if shard >= 0 && shard < len(cs.replCovered) {
		cs.replCovered[shard].Add(1)
	}
}

// MigrationDone counts one finished migration attempt on this node.
func (cs *ClusterStats) MigrationDone(ok bool) {
	if ok {
		cs.migrationsOK.Add(1)
	} else {
		cs.migrationsFail.Add(1)
	}
}

// Migrations returns the (ok, failed) migration counts.
func (cs *ClusterStats) Migrations() (int64, int64) {
	return cs.migrationsOK.Load(), cs.migrationsFail.Load()
}

// fillStatus copies the cluster gauges for one shard into its status
// reply (the anomaly-counter JSON surface).
func (cs *ClusterStats) fillStatus(shard int, st *ShardStatus) {
	if st == nil || shard < 0 || shard >= len(cs.roles) {
		return
	}
	st.ClusterRole = RoleName(cs.roles[shard].Load())
	st.ReplLagSlots = cs.replLag[shard].Load()
	st.ReplPushes = cs.replPushes[shard].Load()
	st.ReplCoveredWrites = cs.replCovered[shard].Load()
	st.MigrationsOK = cs.migrationsOK.Load()
	st.MigrationsFailed = cs.migrationsFail.Load()
}

// writeMetrics renders all shards in the Prometheus text exposition
// format (counters as *_total, gauges bare). Each family prints as one
// group, shards in index order inside it, so the output is stable. cs
// adds the per-node cluster gauges when the cluster layer is attached
// (nil otherwise).
func writeMetrics(w io.Writer, shards []*Shard, cs *ClusterStats) error {
	var b strings.Builder
	// Every family reads the shard's view, copied once per shard so a
	// shard's families agree with each other.
	sts := make([]*ShardStatus, len(shards))
	for i, sh := range shards {
		sts[i] = sh.view.read(&sh.reqs)
	}
	for _, f := range []struct {
		name string
		v    func(st *ShardStatus) any // an integer or a float64, printed as %d or %g
	}{
		{"pd2d_commands_accepted_total", func(st *ShardStatus) any { return st.Accepted }},
		{"pd2d_commands_rejected_weight_total", func(st *ShardStatus) any { return st.RejectedW }},
		{"pd2d_commands_rejected_other_total", func(st *ShardStatus) any { return st.RejectedOther }},
		{"pd2d_commands_backpressured_total", func(st *ShardStatus) any { return st.Backpressured }},
		{"pd2d_commands_applied_total", func(st *ShardStatus) any { return st.Applied }},
		{"pd2d_commands_deferred_total", func(st *ShardStatus) any { return st.Deferred }},
		{"pd2d_commands_failed_applies_total", func(st *ShardStatus) any { return st.FailedApplies }},
		{"pd2d_slots_advanced_total", func(st *ShardStatus) any { return st.Advances }},
		{"pd2d_queries_total", func(st *ShardStatus) any { return st.Queries }},
		{"pd2d_anomaly_reject_spikes_total", func(st *ShardStatus) any { return st.AnomalyRejectSpikes }},
		{"pd2d_anomaly_drift_excursions_total", func(st *ShardStatus) any { return st.AnomalyDriftExcursions }},
		{"pd2d_anomaly_backpressure_spikes_total", func(st *ShardStatus) any { return st.AnomalyBackpressureSpikes }},
		{"pd2d_anomaly_deferred_join_peak", func(st *ShardStatus) any { return st.DeferredJoinPeak }},
		{"pd2d_shard_now", func(st *ShardStatus) any { return st.Now }},
		{"pd2d_shard_active_tasks", func(st *ShardStatus) any { return st.ActiveTasks }},
		{"pd2d_shard_misses", func(st *ShardStatus) any { return st.Misses }},
		{"pd2d_shard_holes", func(st *ShardStatus) any { return st.Holes }},
		{"pd2d_shard_overhead_slots", func(st *ShardStatus) any { return st.OverheadSlots }},
		{"pd2d_shard_violations", func(st *ShardStatus) any { return st.Violations }},
		{"pd2d_shard_deferred_joins", func(st *ShardStatus) any { return st.DeferredJoins }},
		{"pd2d_shard_deferred_leaves", func(st *ShardStatus) any { return st.DeferredLeaves }},
		{"pd2d_shard_total_sched_weight", func(st *ShardStatus) any { return st.TotalSchedWtFloat }},
		{"pd2d_shard_max_abs_drift", func(st *ShardStatus) any { return st.MaxAbsDriftFloat }},
		{"pd2d_shard_sum_abs_lag", func(st *ShardStatus) any { return st.SumAbsLagFloat }},
	} {
		for i, sh := range shards {
			fmt.Fprintf(&b, "%s{shard=\"%d\"} %v\n", f.name, sh.id, f.v(sts[i]))
		}
	}
	if cs != nil {
		for i := range cs.roles {
			fmt.Fprintf(&b, "pd2d_cluster_role{shard=\"%d\"} %d\n", i, cs.roles[i].Load())
		}
		for i := range cs.replLag {
			fmt.Fprintf(&b, "pd2d_repl_lag_slots{shard=\"%d\"} %d\n", i, cs.replLag[i].Load())
		}
		for i := range cs.replPushes {
			fmt.Fprintf(&b, "pd2d_repl_pushes_total{shard=\"%d\"} %d\n", i, cs.replPushes[i].Load())
		}
		for i := range cs.replCovered {
			fmt.Fprintf(&b, "pd2d_repl_covered_writes_total{shard=\"%d\"} %d\n", i, cs.replCovered[i].Load())
		}
		fmt.Fprintf(&b, "pd2d_migrations_total{result=\"ok\"} %d\n", cs.migrationsOK.Load())
		fmt.Fprintf(&b, "pd2d_migrations_total{result=\"fail\"} %d\n", cs.migrationsFail.Load())
	}
	_, err := io.WriteString(w, b.String())
	return err
}
