package serve

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
)

// A Tail is the one state-transfer unit: everything that changed on a
// shard since log index From. It carries the commands applied since
// From and the whole staged batch, which is small. A Replica that holds
// log[0:From) and applied every earlier tail ends up, after applying
// this one, with the primary's full log and batch; the admission books
// are folded from those (foldBooks) when a shard is built from them.
// Digest and Now certify the engine state after the last carried
// command, and BooksDigest what else the tail carries; Replica.Apply
// checks both on every tail.
type Tail struct {
	// Version guards the wire and file format; Replica.Apply reads
	// versions 2 to tailVersion and refuses any other.
	Version int          `json:"version"`
	Shard   int          `json:"shard"`
	Config  ShardConfig  `json:"config"`
	Seed    model.System `json:"seed"`
	From    int          `json:"from"`
	// Total is the primary's full log length after Commands; a follower
	// whose own log does not reach From answers with the index it wants.
	Total  int    `json:"total"`
	Now    int64  `json:"now"`
	Digest uint64 `json:"digest"`

	// Batch holds the staged commands, each with the slot it was
	// admitted in; the boundary that applies one restamps it.
	Batch []core.Command `json:"batch,omitempty"`
	// DeferredJoins (versions 2 and 3) and DeferredLeaves (version 2)
	// are read from tails whose shards held that work outside the
	// engine; a replica stages it ahead of the batch in their flush
	// order, leaves first. No tail is cut with either.
	DeferredJoins  []core.Command `json:"deferred_joins,omitempty"`
	DeferredLeaves []string       `json:"deferred_leaves,omitempty"`
	// Admission is read from tails of versions 2 to 4, which carried
	// admission-book entries: only BooksDigest reads it. No tail is cut
	// with it, and a version-5 tail that carries it is refused.
	Admission *admissionState `json:"admission,omitempty"`
	// BooksDigest is the digest of the book entries the tail carries
	// (admissionState.digest), XORed with batchDigest of Batch from
	// version 4 on.
	BooksDigest uint64 `json:"books_digest"`
	// Commands are the commands applied since From. log is the last key,
	// so a writer can stream it after the rest (see EncodeTail).
	Commands []core.Command `json:"log,omitempty"`

	// seq is the shard's mutation sequence at the cut (see Seq). It is
	// never encoded.
	seq int64
}

// Seq returns the shard's mutation sequence when the shard cut the
// tail: the tail carries every command record and advance the shard
// had counted by then, so a tail whose Seq is at or past the ShardSeq a
// write read after its handler returned carries that write. In process
// only; a decoded tail reads 0.
func (t *Tail) Seq() int64 { return t.seq }

// A Snapshot is a complete tail (From == 0): the whole durable state of
// one shard. It leans on the engine's determinism: instead of
// serializing the scheduler's internal heaps, it records the seed
// system plus the log of commands actually applied — core.Replay
// rebuilds the engine byte-for-byte, and Digest proves it did. A join
// the engine holds for condition J is in the log like any other
// command. The admitted-but-unapplied slot batch rides along so a
// restart loses no admitted command, and the books are folded from the
// engine and the batch.
type Snapshot = Tail

// tailVersion guards the wire and file format; bump on incompatible
// change. Version 3 logs a leave at the boundary that hands it to the
// engine, rule L permitting or not, which a version-2 binary cannot
// replay. Version 4 does the same for a join condition J holds, and its
// books digest covers the batch. Version 5 carries no admission books:
// a reader folds them from the engine and the batch. Version-2 to
// version-4 tails still apply: their logs replay unchanged.
const tailVersion = 5

// tail serializes the state from log index `from` on; from 0 cuts the
// snapshot. seq is the cutting shard's mutation sequence (see
// Tail.Seq). On a Shard, run-goroutine only (or after the loop has
// exited).
//
//lint:allocok tails decode the log suffix and copy the batch by design; replication traffic, not the per-slot path
func (st *shardState) tail(from int, seq int64) (*Tail, error) {
	if from < 0 || from > st.log.len() {
		return nil, fmt.Errorf("serve: shard %d tail from %d outside [0,%d]", st.id, from, st.log.len())
	}
	return &Tail{
		Version:     tailVersion,
		Shard:       st.id,
		Config:      st.cfg,
		Seed:        st.seed,
		From:        from,
		Total:       st.log.len(),
		Now:         st.eng.Now(),
		Digest:      st.eng.StateDigest(),
		Commands:    st.log.from(from),
		Batch:       append([]core.Command(nil), st.batch...),
		BooksDigest: batchDigest(st.batch),
		seq:         seq,
	}, nil
}

// batchDigest is FNV-1a over each staged command's op, task, weight and
// group, in order, and 0 for an empty batch. It leaves out At, which
// the boundary that applies the command restamps. Each command hashes
// as the line fmt's "%s %q %s %q\n" would print, built in one buffer
// that the commands reuse.
func batchDigest(batch []core.Command) uint64 {
	if len(batch) == 0 {
		return 0
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	var line [128]byte
	for _, c := range batch {
		b := append(line[:0], c.Op.String()...)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, c.Task)
		b = append(b, ' ')
		b = c.Weight.Append(b)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, c.Group)
		b = append(b, '\n')
		for _, x := range b {
			h = (h ^ uint64(x)) * prime64
		}
	}
	return h
}

// VerifyTail replays a complete tail (From == 0) on a fresh engine and
// reports whether the replayed digest matches the tail's. It is the
// cluster-level differential check: a primary's full tail must replay
// byte-identically through core.Replay alone.
func VerifyTail(t *Tail) (uint64, error) {
	if t.From != 0 {
		return 0, fmt.Errorf("serve: verify needs a complete tail, got from=%d", t.From)
	}
	ccfg, err := t.Config.CoreConfig()
	if err != nil {
		return 0, err
	}
	eng, err := core.Replay(ccfg, t.Seed, t.Commands, t.Now)
	if err != nil {
		return 0, err
	}
	return eng.StateDigest(), nil
}

// restoreShard rebuilds a stopped shard from a snapshot: apply it to a
// fresh Replica, which replays the log over the seed to the recorded
// clock, verifies the engine and books digests and keeps the staged
// work, then fold the books from the replica's engine and staged work
// and run its state. The returned shard is not started.
func restoreShard(snap *Snapshot, mailboxCap int) (*Shard, error) {
	r := NewReplica(snap.Shard)
	err := r.Apply(snap)
	var adm *admission
	if err == nil {
		adm, err = foldBooks(r.eng, r.batch)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d restore: %w", snap.Shard, err)
	}
	sh := &Shard{shardState: r.shardState, adm: adm}
	sh.initLoop(mailboxCap)
	return sh, nil
}

// admissionState is the admission books as tails of versions 2 to 4
// carried them: every name the shard had admitted a join for, the live
// entries' requested weights, and the pending and leaving marks, each
// sorted by name.
type admissionState struct {
	Names     []string     `json:"names"`
	Requested []taskWeight `json:"requested"`
	Pending   []string     `json:"pending_joins,omitempty"`
	Leaving   []string     `json:"leaving,omitempty"`
}

type taskWeight struct {
	Task   string   `json:"task"`
	Weight frac.Rat `json:"weight"`
}

// digest is the digest of the book entries st carries, 0 for none: the
// XOR of one bookEntryHash per name. For a complete tail of versions 2
// to 4 that is the digest of the whole books its writer stamped; the
// entries a delta carried alone never match it, so such a tail fails
// Replica.Apply's check and the follower resyncs from 0.
func (st *admissionState) digest() uint64 {
	if st == nil {
		return 0
	}
	type entry struct {
		w     frac.Rat
		marks byte
	}
	es := make(map[string]entry, len(st.Names))
	for _, name := range st.Names {
		es[name] = entry{}
	}
	for _, tw := range st.Requested {
		es[tw.Task] = entry{w: tw.Weight, marks: 1}
	}
	mark := func(names []string, m byte) {
		for _, name := range names {
			if e, ok := es[name]; ok {
				e.marks |= m
				es[name] = e
			}
		}
	}
	mark(st.Pending, 2)
	mark(st.Leaving, 4)
	var d uint64
	for name, e := range es {
		d ^= bookEntryHash(name, e.marks, e.w)
	}
	return d
}

// bookEntryHash is FNV-1a over a book entry's name, then its marks (1
// live, 2 pending, 4 leaving) and requested weight (zero for a dead
// entry) in a fixed-width tail, so distinct entries cannot encode
// alike. As in core.StateDigest the hash is inlined: the tail is the
// marks byte, then Num and Den as 8 little-endian bytes each.
func bookEntryHash(name string, marks byte, w frac.Rat) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	h = (h ^ uint64(marks)) * prime64
	num, den := uint64(w.Num()), uint64(w.Den())
	for i := 0; i < 64; i += 8 {
		h = (h ^ num>>i&0xff) * prime64
	}
	for i := 0; i < 64; i += 8 {
		h = (h ^ den>>i&0xff) * prime64
	}
	return h
}
