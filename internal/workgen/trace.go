package workgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
)

// A trace is what a pd2d run leaves behind for replay: every shard's
// snapshot, cut down to the fields replay reads. The engine is a
// deterministic function of its seed and its applied command log, so
// the snapshot already is the recording (core.Replay over the log
// rebuilds the shard) and its digest lets a replay prove it reproduced
// the run. The file is one JSON array of ShardTrace objects whose keys
// are the snapshot's own (docs/SERVE.md §Snapshot format); Record
// decodes each snapshot reply straight into a ShardTrace.
//
// docs/WORKGEN.md §Trace format is the normative description; keep in
// sync.

// traceVersion is the snapshot format version a trace is read in.
// Version 2 to 4 traces are read too: a version-3 log differs only in
// logging each leave at the boundary that hands it to the engine, a
// version-4 log in doing the same for each join, a version-5 snapshot
// only in leaving out the admission books a trace never read, and all
// of them replay through the same admission path.
const traceVersion = 5

// ShardTrace is one shard's recorded state: the engine configuration it
// ran under, the system it started from, the applied command log in
// apply order, the horizon the clock reached, and the state digest at
// that horizon.
type ShardTrace struct {
	Version int         `json:"version"`
	Shard   int         `json:"shard"`
	Config  ShardConfig `json:"config"`
	// Seed is the system the shard started from. A serve shard starts
	// empty and logs every join, so Validate refuses seeded tasks:
	// replay could not post them.
	Seed   model.System   `json:"seed"`
	Now    int64          `json:"now"`
	Digest uint64         `json:"digest"`
	Log    []core.Command `json:"log,omitempty"`
}

// ShardConfig is the engine configuration a shard ran under.
// RecordSchedule matters for the digest: a schedule-recording engine
// digests its schedule rows too, so replay must match it.
type ShardConfig struct {
	M              int      `json:"m"`
	Policy         string   `json:"policy"`
	OIThreshold    frac.Rat `json:"oi_threshold"`
	EarlyRelease   bool     `json:"early_release"`
	RecordSchedule bool     `json:"record_schedule"`
}

// Trace is a complete recorded run: one ShardTrace per shard.
type Trace struct {
	Shards []ShardTrace
}

// EncodeToBytes returns the trace in its canonical form: the shards in
// ascending id order as one JSON array, then a newline. encoding/json
// is deterministic, so encoding a decoded trace is a byte-stable fixed
// point (TestTraceRoundTrip and FuzzTraceDecode pin it).
func (tr *Trace) EncodeToBytes() ([]byte, error) {
	shards := append([]ShardTrace{}, tr.Shards...)
	sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
	data, err := json.Marshal(shards)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Validate checks what Replay relies on, so a hand-built or decoded
// trace fails before it reaches a daemon: the snapshot version,
// distinct shard ids, m >= 1, an unseeded engine, and a log of wire
// commands ordered in time and below the horizon.
func (tr *Trace) Validate() error {
	seen := make(map[int]bool, len(tr.Shards))
	for i := range tr.Shards {
		st := &tr.Shards[i]
		if st.Version < 2 || st.Version > traceVersion {
			return fmt.Errorf("workgen: trace shard %d is snapshot version %d, this build reads v2 to v%d",
				st.Shard, st.Version, traceVersion)
		}
		if st.Shard < 0 {
			return fmt.Errorf("workgen: trace shard id %d is negative", st.Shard)
		}
		if seen[st.Shard] {
			return fmt.Errorf("workgen: trace repeats shard %d", st.Shard)
		}
		seen[st.Shard] = true
		if st.Config.M < 1 {
			return fmt.Errorf("workgen: trace shard %d needs m >= 1, got %d", st.Shard, st.Config.M)
		}
		if len(st.Seed.Tasks) != 0 {
			return fmt.Errorf("workgen: trace shard %d seeds %d tasks; replay can only post joins",
				st.Shard, len(st.Seed.Tasks))
		}
		if st.Now < 0 {
			return fmt.Errorf("workgen: trace shard %d has negative horizon %d", st.Shard, st.Now)
		}
		last := model.Time(0)
		for j := range st.Log {
			c := &st.Log[j]
			if c.At < last {
				return fmt.Errorf("workgen: trace shard %d command %d at t=%d is behind t=%d (log must be ordered)",
					st.Shard, j, c.At, last)
			}
			if int64(c.At) >= st.Now {
				return fmt.Errorf("workgen: trace shard %d command %d at t=%d is at or past the horizon %d",
					st.Shard, j, c.At, st.Now)
			}
			last = c.At
			if err := checkWire(c); err != nil {
				return fmt.Errorf("workgen: trace shard %d command %d: %w", st.Shard, j, err)
			}
		}
	}
	return nil
}

// checkWire accepts the commands serve logs and Replay can post, each
// naming a task: a join with a positive weight and an optional group, a
// reweight with a positive weight, and a leave with neither.
func checkWire(c *core.Command) error {
	if c.Task == "" {
		return fmt.Errorf("%s needs a task name", c.Op)
	}
	switch c.Op {
	case core.OpJoin, core.OpReweight:
		if c.Weight.Sign() <= 0 {
			return fmt.Errorf("%s %q needs a positive weight, got %s", c.Op, c.Task, c.Weight)
		}
		if c.Op == core.OpReweight && c.Group != "" {
			return fmt.Errorf("reweight %q carries group %q", c.Task, c.Group)
		}
	case core.OpLeave:
		if !c.Weight.IsZero() || c.Group != "" {
			return fmt.Errorf("leave %q carries a weight or a group", c.Task)
		}
	default:
		return fmt.Errorf("op %s is not a wire op (join, leave, reweight)", c.Op)
	}
	if c.Arg != 0 {
		return fmt.Errorf("%s %q carries arg %d", c.Op, c.Task, c.Arg)
	}
	return nil
}

// DecodeTrace reads a trace file: one JSON array of ShardTrace objects
// and nothing after it. Unknown fields are refused, so a file in some
// other format fails rather than decoding to a partial trace; every key
// EncodeToBytes writes must be present (checkKeys); and the result must
// pass Validate. Hostile input is an error, never a panic.
func DecodeTrace(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("workgen: reading trace: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	tr := &Trace{}
	if err := dec.Decode(&tr.Shards); err != nil {
		return nil, fmt.Errorf("workgen: decoding trace: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("workgen: trailing data after the trace")
	}
	if tr.Shards == nil {
		return nil, fmt.Errorf("workgen: trace is null, not an array")
	}
	if err := checkKeys(data); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// checkKeys requires each key EncodeToBytes writes for a shard, its
// config and each command (all but a command's task and group, omitted
// when empty) to be present and not null in the trace array data, or a
// cut-short object would decode to zero values: no op reads as a join.
func checkKeys(data []byte) error {
	var shards []struct {
		Version, Shard, Seed, Now, Digest present
		Config                            struct {
			M, Policy      present
			OIThreshold    present `json:"oi_threshold"`
			EarlyRelease   present `json:"early_release"`
			RecordSchedule present `json:"record_schedule"`
		}
		Log []struct{ At, Op, Weight present }
	}
	if err := json.Unmarshal(data, &shards); err != nil {
		return fmt.Errorf("workgen: decoding trace: %w", err)
	}
	for i, s := range shards {
		c := s.Config
		if !(s.Version && s.Shard && s.Seed && s.Now && s.Digest &&
			c.M && c.Policy && c.OIThreshold && c.EarlyRelease && c.RecordSchedule) {
			return fmt.Errorf("workgen: trace shard object %d lacks a shard or config key, or has it null", i)
		}
		for j, cmd := range s.Log {
			if !(cmd.At && cmd.Op && cmd.Weight) {
				return fmt.Errorf("workgen: trace shard object %d command %d lacks at, op or weight, or has it null", i, j)
			}
		}
	}
	return nil
}

// present decodes any JSON value but null as true: false is missing or null.
type present bool

func (p *present) UnmarshalJSON(b []byte) error {
	*p = string(b) != "null"
	return nil
}
