package serve

import (
	"fmt"

	"repro/internal/core"
)

// A Replica is a copy of one shard rebuilt from the tails applied to
// it: the state a Shard runs but its admission books — the full applied
// command log, a live engine kept in lockstep by replaying each tail,
// and the last tail's staged batch. It is the one path from a tail to
// shard state: a cluster follower applies each pushed tail to its warm
// Replica, and restoreShard applies a snapshot to a fresh one, folds
// the books from its engine and batch, and runs its state. The engine
// and the batch are the digest-exchange witnesses — after every tail
// the replica's StateDigest and batch digest must equal the ones the
// primary stamped on the tail, so divergence is caught when the tail
// applies, not at promotion time.
//
// Not safe for concurrent use.
type Replica struct {
	shardState
}

// GapError reports that a tail starts past the replica's log end; a
// follower answers the primary with the index it wants.
type GapError struct{ Want int }

func (e GapError) Error() string {
	return fmt.Sprintf("serve: tail starts past the log end, want log index %d", e.Want)
}

// NewReplica returns an empty replica that accepts only a complete
// (From == 0) tail first.
func NewReplica(shard int) *Replica { return &Replica{shardState{id: shard}} }

// Len returns the replicated log length — the index the replica wants
// next.
func (r *Replica) Len() int { return r.log.len() }

// Now returns the replica engine's clock, or 0 before the first tail.
func (r *Replica) Now() int64 {
	if r.eng == nil {
		return 0
	}
	return r.eng.Now()
}

// Apply folds one tail into the replica: append the new commands,
// replay them on the live engine up to the tail's clock, verify the
// engine digest against the primary's and the books digest against
// what the tail carries, then keep the tail's batch, with an older
// tail's deferred leaves and joins staged ahead of it. A tail starting
// past the log end is a GapError (the caller resyncs from the wanted
// index); a version or shard mismatch, pending work no shard could have
// staged, book entries in a version-5 tail, a replay failure or a
// digest mismatch is a hard error (the caller must discard the replica
// and resync from 0). An older version's delta fails the books digest,
// since the entries it carries are not the whole books its writer
// digested. Overlapping tails — From inside the log — are fine: the
// overlap is skipped, and only the suffix applies.
func (r *Replica) Apply(t *Tail) error {
	if t.Version < 2 || t.Version > tailVersion {
		return fmt.Errorf("serve: tail version %d, want 2 to %d", t.Version, tailVersion)
	}
	if t.Shard != r.id {
		return fmt.Errorf("serve: tail for shard %d applied to replica of %d", t.Shard, r.id)
	}
	for i, c := range t.Batch {
		if c.Op != core.OpJoin && c.Op != core.OpLeave && c.Op != core.OpReweight {
			return fmt.Errorf("serve: replica %d batch entry %d is a %s, not a join, leave or reweight", r.id, i, c.Op)
		}
	}
	for i, c := range t.DeferredJoins {
		if c.Op != core.OpJoin {
			return fmt.Errorf("serve: replica %d deferred join %d is a %s", r.id, i, c.Op)
		}
	}
	if len(t.DeferredJoins) > 0 && t.Version > 3 || len(t.DeferredLeaves) > 0 && t.Version > 2 {
		return fmt.Errorf("serve: replica %d version-%d tail carries deferred work its engine would hold", r.id, t.Version)
	}
	if t.Admission != nil && t.Version > 4 {
		return fmt.Errorf("serve: replica %d version-%d tail carries book entries", r.id, t.Version)
	}
	if r.eng == nil {
		if t.From != 0 {
			return GapError{Want: 0}
		}
		if err := r.build(t.Config, t.Seed); err != nil {
			return fmt.Errorf("serve: replica %d: %w", r.id, err)
		}
	}
	if t.From > r.log.len() {
		return GapError{Want: r.log.len()}
	}
	skip := r.log.len() - t.From
	if skip > len(t.Commands) {
		skip = len(t.Commands) // replica already past this tail's coverage
	}
	fresh := t.Commands[skip:]
	if err := r.eng.ReplayLog(fresh, t.Now); err != nil {
		return fmt.Errorf("serve: replica %d replay: %w", r.id, err)
	}
	for _, c := range fresh {
		r.log.append(c)
	}
	if got := r.eng.StateDigest(); got != t.Digest {
		return fmt.Errorf("serve: replica %d digest mismatch at t=%d: replayed %016x, tail %016x",
			r.id, t.Now, got, t.Digest)
	}
	got := t.Admission.digest()
	if t.Version > 3 {
		got ^= batchDigest(t.Batch)
	}
	if got != t.BooksDigest {
		return fmt.Errorf("serve: replica %d books digest mismatch at t=%d: carried %016x, tail %016x",
			r.id, t.Now, got, t.BooksDigest)
	}
	// Fresh copies: the caller keeps its tail, and a replica reusing its
	// arrays would hold the largest batch it ever saw.
	r.batch = make([]core.Command, 0, len(t.DeferredLeaves)+len(t.DeferredJoins)+len(t.Batch))
	for _, name := range t.DeferredLeaves {
		r.batch = append(r.batch, core.Command{At: t.Now, Op: core.OpLeave, Task: name})
	}
	r.batch = append(r.batch, t.DeferredJoins...)
	r.batch = append(r.batch, t.Batch...)
	return nil
}

// Snapshot returns the complete tail a promotion installs, cut from the
// replica's state as a primary cuts its own: the whole replicated log,
// with the latest tail's clock, digests and batch.
// InstallShard replays it on a fresh engine. Nil for a nil replica or
// one no tail has applied to yet.
func (r *Replica) Snapshot() *Snapshot {
	if r == nil || r.eng == nil {
		return nil
	}
	snap, _ := r.tail(0, 0) // from 0 is always in range
	return snap
}
