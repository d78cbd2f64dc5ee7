package workgen

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/stats"
)

// ShapeStream turns a Shape into a concrete command stream for one
// worker. Each NextBatch call is one issue round: the phase in effect
// sets how many commands the round carries (rate), how wide the
// reweight targets range (spread), and how likely a command is a
// join/leave churn step instead of a reweight (churn).
//
// Reweights target the caller's shared anchor tasks (joined once per
// shard by the load generator's setup); churn joins short-lived tasks
// in the stream's own prefix namespace and leaves them once a later
// Advanced call confirms their joins were flushed. The stream is
// deterministic in (shape, rng, prefix) and single-goroutine.
type ShapeStream struct {
	shape  *Shape
	rng    *stats.RNG
	prefix string
	anchor func(i int) string
	tasks  int
	maxNum int

	round int
	fresh []string // churn tasks joined since the last Advanced
	ready []string // churn tasks whose joins have been flushed
	seq   int      // fresh-name counter
}

// NewShapeStream validates the shape and builds a stream. anchor names
// the shared reweight targets (i in [0, tasks)); prefix namespaces the
// stream's own churn tasks and must be unique per worker (names are
// burned forever). maxNum caps reweight-target numerators (/64) so the
// caller can keep total requested weight inside the shard's capacity
// regardless of how aggressive the phase spread is; it is clamped to
// the light-weight range [1, 31].
func NewShapeStream(shape *Shape, rng *stats.RNG, prefix string, anchor func(i int) string, tasks, maxNum int) (*ShapeStream, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if anchor == nil {
		return nil, fmt.Errorf("workgen: shape stream needs an anchor naming function")
	}
	if tasks < 1 {
		return nil, fmt.Errorf("workgen: shape stream needs tasks >= 1, got %d", tasks)
	}
	if maxNum < 1 {
		maxNum = 1
	}
	if maxNum > 31 {
		maxNum = 31
	}
	return &ShapeStream{shape: shape, rng: rng, prefix: prefix, anchor: anchor, tasks: tasks, maxNum: maxNum}, nil
}

// NextBatch appends one round's commands to dst, sized by the current
// phase's rate against base. An idle phase (rate 0) appends nothing —
// the round still elapses, so the caller keeps pacing virtual time.
func (ss *ShapeStream) NextBatch(dst []core.Command, base int) []core.Command {
	p := ss.shape.Phase(ss.round)
	ss.round++
	n := p.BatchSize(base)
	spread := p.Spread
	if spread > ss.maxNum {
		spread = ss.maxNum
	}
	for i := 0; i < n; i++ {
		if p.Churn > 0 && ss.rng.Float64() < p.Churn {
			dst = ss.churnStep(dst)
			continue
		}
		w := sixtyFourths(int64(1 + ss.rng.Bounded(spread)))
		dst = append(dst, core.Command{Op: core.OpReweight, Task: ss.anchor(ss.rng.Bounded(ss.tasks)), Weight: w})
	}
	return dst
}

// churnStep emits one join or leave, keeping at most churnWindow of the
// stream's short-lived tasks alive so the weight envelope stays bounded.
func (ss *ShapeStream) churnStep(dst []core.Command) []core.Command {
	canJoin := len(ss.fresh)+len(ss.ready) < churnWindow
	switch {
	case canJoin && (len(ss.ready) == 0 || ss.rng.Bounded(2) == 0):
		name := ss.prefix + "-c" + strconv.Itoa(ss.seq)
		ss.seq++
		ss.fresh = append(ss.fresh, name)
		return append(dst, core.Command{Op: core.OpJoin, Task: name, Weight: sixtyFourths(2)})
	case len(ss.ready) > 0:
		name := ss.ready[0]
		ss.ready = ss.ready[1:]
		return append(dst, core.Command{Op: core.OpLeave, Task: name})
	default:
		// Window full, nothing flushed yet: fall back to a reweight so
		// the round keeps its command count.
		w := sixtyFourths(int64(1 + ss.rng.Bounded(2)))
		return append(dst, core.Command{Op: core.OpReweight, Task: ss.anchor(ss.rng.Bounded(ss.tasks)), Weight: w})
	}
}

// Advanced tells the stream a slot boundary passed: joins posted before
// it have been flushed, so their tasks may now be left.
func (ss *ShapeStream) Advanced() {
	ss.ready = append(ss.ready, ss.fresh...)
	ss.fresh = ss.fresh[:0]
}
