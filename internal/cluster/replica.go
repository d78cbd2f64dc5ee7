package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/serve"
)

// A Replica is a follower's warm copy of one shard: the full applied
// command log plus a live engine kept in lockstep by replaying each
// pushed tail, and the admission books folded from every tail. The
// engine and the books are the digest-exchange witnesses — after every
// tail the replica's StateDigest and books digest must equal the ones
// the primary stamped on the tail, so divergence is caught at push
// time, not at promotion time.
//
// A node touches its replicas only under the shard's shardState.mu;
// methods are not safe for concurrent use.
type Replica struct {
	shard int
	eng   *core.Scheduler
	log   []core.Command
	books *serve.Books
	// last is the most recent applied tail; its pending sets, with the
	// books, make promotion lose no acknowledged command.
	last *serve.Tail
}

// errGap reports that a tail starts past the replica's log end; the
// follower answers the primary with the index it wants.
type errGap struct{ want int }

func (e errGap) Error() string { return fmt.Sprintf("cluster: tail gap, want log index %d", e.want) }

// wantIndex returns (index, true) when err is a replication gap.
func wantIndex(err error) (int, bool) {
	if g, ok := err.(errGap); ok {
		return g.want, true
	}
	return 0, false
}

// NewReplica returns an empty replica that accepts only a complete
// (From == 0) tail first.
func NewReplica(shard int) *Replica { return &Replica{shard: shard, books: serve.NewBooks()} }

// Len returns the replicated log length — the index the replica wants
// next.
func (r *Replica) Len() int { return len(r.log) }

// Now returns the replica engine's clock, or 0 before the first tail.
func (r *Replica) Now() int64 {
	if r.eng == nil {
		return 0
	}
	return r.eng.Now()
}

// Apply folds one pushed tail into the replica: append the new
// commands, replay them on the live engine up to the tail's clock,
// verify the engine digest against the primary's, then fold the tail's
// book entries and verify the books digest. A tail starting past the
// log end is an errGap (the caller resyncs from the wanted index); a
// digest mismatch is a hard error (the caller must discard the replica
// and resync from 0). Overlapping tails — From inside the log — are
// fine: the overlap is skipped, only the suffix applies, and the book
// entries they carry are a superset of the ones the replica lacks.
func (r *Replica) Apply(t *serve.Tail) error {
	if t.Shard != r.shard {
		return fmt.Errorf("cluster: tail for shard %d pushed to replica of %d", t.Shard, r.shard)
	}
	if r.eng == nil {
		if t.From != 0 {
			return errGap{want: 0}
		}
		ccfg, err := t.Config.CoreConfig()
		if err != nil {
			return fmt.Errorf("cluster: replica %d config: %w", r.shard, err)
		}
		eng, err := core.New(ccfg, t.Seed)
		if err != nil {
			return fmt.Errorf("cluster: replica %d seed: %w", r.shard, err)
		}
		r.eng = eng
	}
	if t.From > len(r.log) {
		return errGap{want: len(r.log)}
	}
	skip := len(r.log) - t.From
	if skip > len(t.Commands) {
		skip = len(t.Commands) // replica already past this tail's coverage
	}
	fresh := t.Commands[skip:]
	if err := r.eng.ReplayLog(fresh, t.Now); err != nil {
		return fmt.Errorf("cluster: replica %d replay: %w", r.shard, err)
	}
	r.log = append(r.log, fresh...)
	if got := r.eng.StateDigest(); got != t.Digest {
		return fmt.Errorf("cluster: replica %d digest mismatch at t=%d: replica %016x, primary %016x",
			r.shard, t.Now, got, t.Digest)
	}
	if err := r.books.Fold(t); err != nil {
		return fmt.Errorf("cluster: replica %d: %w", r.shard, err)
	}
	r.last = t
	return nil
}

// Snapshot assembles the full-shard snapshot a promotion installs: the
// latest tail's pending sets and the folded books over the complete
// replicated log. Nil until the first tail has applied.
func (r *Replica) Snapshot() (*serve.Snapshot, error) {
	if r.last == nil {
		return nil, fmt.Errorf("cluster: replica %d has no tail to promote", r.shard)
	}
	return r.last.BuildSnapshot(r.log[:r.last.From], r.books)
}
