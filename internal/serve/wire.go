package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
)

// Wire types for the JSON protocol. docs/SERVE.md is the normative
// description; keep the two in sync.

// CommandRequest is one mutation submitted to a shard. Op is one of
// "join", "leave", "reweight". Weight is a rational in "p/q" (or
// integer "n") form; it is required for join and reweight and ignored
// for leave. Group optionally tags a joining task for tie-breaking.
type CommandRequest struct {
	Op     string `json:"op"`
	Task   string `json:"task"`
	Weight string `json:"weight,omitempty"`
	Group  string `json:"group,omitempty"`
}

// CommandResult is the per-command outcome. Status is "queued" or
// "rejected". A queued command is admitted and will be applied at the
// boundary of slot Slot or later (leaves and joins may be deferred by
// rules L/J but are never dropped). A rejected command reports the
// admission error; weight rejections carry the remaining headroom so
// clients can re-plan without polling.
type CommandResult struct {
	Status string `json:"status"`
	Slot   int64  `json:"slot,omitempty"`
	Code   int    `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Headroom is M minus the admitted total weight, as an exact
	// rational string. Present on property-(W) rejections.
	Headroom string `json:"headroom,omitempty"`
}

// AdvanceRequest asks a shard to advance its virtual clock. Slots
// defaults to 1.
type AdvanceRequest struct {
	Slots int64 `json:"slots,omitempty"`
}

// AdvanceResponse reports the clock after the advance.
type AdvanceResponse struct {
	Now int64 `json:"now"`
}

// TaskStatus is one task's accounting in a ShardStatus reply. Exact
// rationals are rendered as strings; drift and lag additionally as
// floats for dashboards (serve is a designated reporting boundary).
type TaskStatus struct {
	Name        string  `json:"name"`
	Weight      string  `json:"weight"`
	SchedWeight string  `json:"sched_weight"`
	Active      bool    `json:"active"`
	Scheduled   int64   `json:"scheduled"`
	Drift       string  `json:"drift"`
	DriftFloat  float64 `json:"drift_float"`
	MaxAbsDrift string  `json:"max_abs_drift"`
	Lag         string  `json:"lag"`
	LagFloat    float64 `json:"lag_float"`
	Misses      int64   `json:"misses"`
}

// ShardStatus is the query reply for one shard: the engine state at the
// last slot boundary plus the admission books, the staged batch length
// and the counters as of the last record the shard answered.
type ShardStatus struct {
	Shard        int    `json:"shard"`
	Now          int64  `json:"now"`
	Policy       string `json:"policy"`
	M            int    `json:"m"`
	ActiveTasks  int    `json:"active_tasks"`
	TotalSchedWt string `json:"total_sched_weight"`
	RequestedWt  string `json:"requested_weight"`
	Headroom     string `json:"headroom"`
	// Float mirror of TotalSchedWt for the /metrics gauge.
	TotalSchedWtFloat float64 `json:"total_sched_weight_float"`
	Misses            int64   `json:"misses"`
	Holes             int64   `json:"holes"`
	OverheadSlots     int64   `json:"overhead_slots"`
	// MaxAbsDrift is the largest |drift| any task has reached; SumAbsLag
	// sums |lag| over active tasks. Exact strings plus float mirrors
	// (serve is a reporting boundary; the floats feed /metrics).
	MaxAbsDrift      string  `json:"max_abs_drift"`
	MaxAbsDriftFloat float64 `json:"max_abs_drift_float"`
	SumAbsLag        string  `json:"sum_abs_lag"`
	SumAbsLagFloat   float64 `json:"sum_abs_lag_float"`
	Violations       int     `json:"violations"`
	PendingBatch     int     `json:"pending_batch"`
	DeferredJoins    int     `json:"deferred_joins"`
	DeferredLeaves   int     `json:"deferred_leaves"`

	Accepted      int64 `json:"accepted"`
	RejectedW     int64 `json:"rejected_weight"`
	RejectedOther int64 `json:"rejected_other"`
	Backpressured int64 `json:"backpressured"`
	Applied       int64 `json:"applied"`
	Deferred      int64 `json:"deferred"`
	FailedApplies int64 `json:"failed_applies"`
	Advances      int64 `json:"advances"`
	Queries       int64 `json:"queries"`

	// Anomaly counters (see metrics.go): windows of observable
	// degradation. Graceful degradation means these may rise while
	// FailedApplies and Violations stay zero.
	AnomalyRejectSpikes       int64 `json:"anomaly_reject_spikes"`
	AnomalyDriftExcursions    int64 `json:"anomaly_drift_excursions"`
	AnomalyBackpressureSpikes int64 `json:"anomaly_backpressure_spikes"`
	DeferredJoinPeak          int64 `json:"deferred_join_peak"`

	// Cluster gauges (see ClusterStats): present only when the cluster
	// layer is attached. ClusterRole is this node's role for the shard;
	// the migration counters are node-wide and repeat on every shard.
	ClusterRole       string `json:"cluster_role,omitempty"`
	ReplLagSlots      int64  `json:"repl_lag_slots,omitempty"`
	ReplPushes        int64  `json:"repl_pushes,omitempty"`
	ReplCoveredWrites int64  `json:"repl_covered_writes,omitempty"`
	MigrationsOK      int64  `json:"migrations_ok,omitempty"`
	MigrationsFailed  int64  `json:"migrations_failed,omitempty"`

	Tasks []TaskStatus `json:"tasks,omitempty"`
}

// StateResponse carries a shard's canonical engine-state dump
// (core.Scheduler.WriteState) and its FNV-1a digest — the byte-exact
// equality witness differential tests compare against a directly driven
// engine.
type StateResponse struct {
	Shard  int    `json:"shard"`
	Now    int64  `json:"now"`
	Digest uint64 `json:"digest"`
	State  string `json:"state"`
}

// ErrorResponse is the body of non-2xx replies outside per-command
// results (unknown shard, malformed body, mailbox full, draining).
type ErrorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// Admission reason/error vocabulary shared by wire replies and tests.
const (
	errInvalid  = "invalid"      // malformed op, weight, or name (400)
	errUnknown  = "unknown_task" // reweight/leave of a task never joined (404)
	errConflict = "conflict"     // duplicate name, join still pending, already leaving (409)
	errWeight   = "weight"       // property-(W) violation; headroom attached (409)
	errTooLarge = "too_large"    // body exceeds the read limit (413)
	errFull     = "mailbox_full" // bounded mailbox at capacity (429)
	errDraining = "draining"     // shard is shutting down (503)
	errBadShard = "unknown_shard"
)

// parseCommand validates the wire form and resolves it to an op and an
// exact weight. It performs only stateless checks; stateful admission
// (names, headroom) happens on the shard goroutine.
func parseCommand(req CommandRequest) (op core.CommandOp, w frac.Rat, err error) {
	switch req.Op {
	case "join":
		op = core.OpJoin
	case "leave":
		op = core.OpLeave
	case "reweight":
		op = core.OpReweight
	default:
		return 0, frac.Rat{}, fmt.Errorf("op %q is not one of join, leave, reweight", req.Op)
	}
	if req.Task == "" {
		return 0, frac.Rat{}, fmt.Errorf("missing task name")
	}
	if op == core.OpLeave {
		return op, frac.Rat{}, nil
	}
	if req.Weight == "" {
		return 0, frac.Rat{}, fmt.Errorf("op %s needs a weight", req.Op)
	}
	w, perr := frac.Parse(req.Weight)
	if perr != nil {
		return 0, frac.Rat{}, fmt.Errorf("weight %q: %v", req.Weight, perr)
	}
	// The AIS reweighting rules cover light tasks only; serve admits
	// nothing it could not later reweight.
	if lerr := model.CheckLightWeight(w); lerr != nil {
		return 0, frac.Rat{}, fmt.Errorf("weight %s: %v", w, lerr)
	}
	return op, w, nil
}
