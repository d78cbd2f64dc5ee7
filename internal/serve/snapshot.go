package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
)

// A Snapshot is the complete durable state of one shard. It leans on
// the engine's determinism: instead of serializing the scheduler's
// internal heaps, it records the seed system plus the log of commands
// actually applied — core.Replay rebuilds the engine byte-for-byte, and
// Digest (the engine's state digest at snapshot time) proves it did.
// Admitted-but-unapplied work (the slot batch and the rule-L/J deferral
// queues) and the admission books ride along so a restart loses no
// admitted command.
type Snapshot struct {
	Version int            `json:"version"`
	Shard   int            `json:"shard"`
	Config  ShardConfig    `json:"config"`
	Now     int64          `json:"now"`
	Seed    model.System   `json:"seed"`
	Log     []core.Command `json:"log"`

	Batch          []pendingCmd   `json:"batch,omitempty"`
	DeferredJoins  []pendingCmd   `json:"deferred_joins,omitempty"`
	DeferredLeaves []string       `json:"deferred_leaves,omitempty"`
	Admission      admissionState `json:"admission"`

	Digest uint64 `json:"digest"`
}

// snapshotVersion guards the wire format; bump on incompatible change.
const snapshotVersion = 1

// pendingCmd is the serialized form of an admitted-but-unapplied
// command.
type pendingCmd struct {
	Op     string   `json:"op"`
	Task   string   `json:"task"`
	Weight frac.Rat `json:"weight"`
	Group  string   `json:"group,omitempty"`
}

func toPendingCmds(cmds []wireCmd) []pendingCmd {
	if len(cmds) == 0 {
		return nil
	}
	out := make([]pendingCmd, len(cmds))
	for i, c := range cmds {
		out[i] = pendingCmd{Op: opName(c.op), Task: c.task, Weight: c.weight, Group: c.group}
	}
	return out
}

func fromPendingCmds(cmds []pendingCmd) ([]wireCmd, error) {
	if len(cmds) == 0 {
		return nil, nil
	}
	out := make([]wireCmd, len(cmds))
	for i, c := range cmds {
		op, err := opFromName(c.Op)
		if err != nil {
			return nil, err
		}
		out[i] = wireCmd{op: op, task: c.Task, weight: c.Weight, group: c.Group}
	}
	return out, nil
}

func opName(op pendingOp) string {
	switch op {
	case opJoin:
		return "join"
	case opLeave:
		return "leave"
	case opReweight:
		return "reweight"
	default:
		panic(fmt.Sprintf("serve: unhandled pending op %d", op))
	}
}

func opFromName(name string) (pendingOp, error) {
	switch name {
	case "join":
		return opJoin, nil
	case "leave":
		return opLeave, nil
	case "reweight":
		return opReweight, nil
	}
	return 0, fmt.Errorf("serve: snapshot names unknown op %q", name)
}

// buildSnapshot serializes the shard. Run-goroutine only (or after the
// loop has exited).
//
//lint:allocok snapshots copy the full log and task set by design; rare administrative operation
func (sh *Shard) buildSnapshot() *Snapshot {
	logCopy := make([]core.Command, len(sh.log))
	copy(logCopy, sh.log)
	return &Snapshot{
		Version:        snapshotVersion,
		Shard:          sh.id,
		Config:         sh.cfg,
		Now:            sh.eng.Now(),
		Seed:           sh.seed,
		Log:            logCopy,
		Batch:          toPendingCmds(sh.batch),
		DeferredJoins:  toPendingCmds(sh.defJoins),
		DeferredLeaves: append([]string(nil), sh.defLeaves...),
		Admission:      sh.adm.state(0),
		Digest:         sh.eng.StateDigest(),
	}
}

// A Tail is the replication wire unit: everything that changed on a
// shard since log index From. It carries the commands applied since
// From, the admission-book entries changed since From, and the whole
// admitted-but-unapplied queues, which are small. A Tail with From == 0
// is a complete snapshot of the shard. A follower that holds log[0:From)
// and applies Commands ends up with the primary's full log; one that
// also folded every earlier tail into its Books ends up with the
// primary's books. Digest and Now certify the engine state after the
// last carried command, and BooksDigest the whole books; the follower
// checks both on every tail.
type Tail struct {
	Shard  int          `json:"shard"`
	Config ShardConfig  `json:"config"`
	Seed   model.System `json:"seed"`
	From   int          `json:"from"`
	// Total is the primary's full log length after Commands; a follower
	// whose own log does not reach From answers with the index it wants.
	Total    int            `json:"total"`
	Now      int64          `json:"now"`
	Digest   uint64         `json:"digest"`
	Commands []core.Command `json:"commands,omitempty"`

	Batch          []pendingCmd `json:"batch,omitempty"`
	DeferredJoins  []pendingCmd `json:"deferred_joins,omitempty"`
	DeferredLeaves []string     `json:"deferred_leaves,omitempty"`
	// Admission holds the book entries stamped >= From: every entry a
	// follower that applied the cut at From lacks (names are never
	// deleted, so upserting them is complete), and all of them when
	// From == 0.
	Admission   admissionState `json:"admission"`
	BooksDigest uint64         `json:"books_digest"`
}

// buildTail serializes the shard's state from log index `from` on.
// Run-goroutine only (or after the loop has exited).
//
//lint:allocok tails copy the log suffix and pending sets by design; replication traffic, not the per-slot path
func (sh *Shard) buildTail(from int) (*Tail, error) {
	if from < 0 || from > len(sh.log) {
		return nil, fmt.Errorf("serve: shard %d tail from %d outside [0,%d]", sh.id, from, len(sh.log))
	}
	cmds := make([]core.Command, len(sh.log)-from)
	copy(cmds, sh.log[from:])
	return &Tail{
		Shard:          sh.id,
		Config:         sh.cfg,
		Seed:           sh.seed,
		From:           from,
		Total:          len(sh.log),
		Now:            sh.eng.Now(),
		Digest:         sh.eng.StateDigest(),
		Commands:       cmds,
		Batch:          toPendingCmds(sh.batch),
		DeferredJoins:  toPendingCmds(sh.defJoins),
		DeferredLeaves: append([]string(nil), sh.defLeaves...),
		Admission:      sh.adm.state(from),
		BooksDigest:    sh.adm.digest(),
	}, nil
}

// Books is a follower's copy of one shard's admission books, rebuilt
// from the tails it applies: Fold upserts each tail's entries and checks
// the result against the tail's BooksDigest. Its layout stays private
// to this package. Not safe for concurrent use.
type Books struct{ adm *admission }

// NewBooks returns empty books, ready for a complete (From == 0) tail.
func NewBooks() *Books { return &Books{adm: newAdmission(0)} }

// Fold upserts t's book entries and verifies the whole books against
// t.BooksDigest. On a mismatch the books are left diverged; the caller
// must discard them and resync from a complete tail.
func (b *Books) Fold(t *Tail) error {
	b.adm.restore(t.Admission)
	return b.check(t)
}

func (b *Books) check(t *Tail) error {
	if got := b.adm.digest(); got != t.BooksDigest {
		return fmt.Errorf("serve: shard %d books digest mismatch at t=%d: folded %016x, primary %016x",
			t.Shard, t.Now, got, t.BooksDigest)
	}
	return nil
}

// BuildSnapshot assembles a full shard snapshot from this tail, the log
// prefix the receiver already holds (len(prefix) must equal From), and
// the books folded from every tail up to this one, which must match the
// tail's BooksDigest. It is how a promoted follower or a migration
// receiver turns its replicated state back into something restoreShard
// (and therefore Server.InstallShard) accepts — the restore replays the
// combined log and verifies Digest, so a corrupt hand-off cannot be
// installed.
func (t *Tail) BuildSnapshot(prefix []core.Command, books *Books) (*Snapshot, error) {
	if len(prefix) != t.From {
		return nil, fmt.Errorf("serve: tail for shard %d starts at %d but prefix holds %d commands",
			t.Shard, t.From, len(prefix))
	}
	if err := books.check(t); err != nil {
		return nil, err
	}
	log := make([]core.Command, 0, len(prefix)+len(t.Commands))
	log = append(log, prefix...)
	log = append(log, t.Commands...)
	return &Snapshot{
		Version:        snapshotVersion,
		Shard:          t.Shard,
		Config:         t.Config,
		Now:            t.Now,
		Seed:           t.Seed,
		Log:            log,
		Batch:          t.Batch,
		DeferredJoins:  t.DeferredJoins,
		DeferredLeaves: t.DeferredLeaves,
		Admission:      books.adm.state(0),
		Digest:         t.Digest,
	}, nil
}

// VerifyTail replays a complete tail (From == 0) on a fresh engine and
// reports whether the replayed digest matches the tail's. It is the
// cluster-level differential check: a primary's full tail must replay
// byte-identically through core.Replay alone.
func VerifyTail(t *Tail) (uint64, error) {
	if t.From != 0 {
		return 0, fmt.Errorf("serve: verify needs a complete tail, got from=%d", t.From)
	}
	ccfg, err := t.Config.coreConfig()
	if err != nil {
		return 0, err
	}
	eng, err := core.Replay(ccfg, t.Seed, t.Commands, t.Now)
	if err != nil {
		return 0, err
	}
	return eng.StateDigest(), nil
}

// restoreShard rebuilds a stopped shard from a snapshot: replay the log
// over the seed to the recorded clock, verify the engine digest, then
// reinstate the admission books and the pending queues. The returned
// shard is not started.
func restoreShard(snap *Snapshot, mailboxCap int) (*Shard, error) {
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	ccfg, err := snap.Config.coreConfig()
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d snapshot: %w", snap.Shard, err)
	}
	eng, err := core.Replay(ccfg, snap.Seed, snap.Log, snap.Now)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d restore replay: %w", snap.Shard, err)
	}
	if got := eng.StateDigest(); got != snap.Digest {
		return nil, fmt.Errorf("serve: shard %d restore digest mismatch: replayed %016x, snapshot %016x",
			snap.Shard, got, snap.Digest)
	}
	batch, err := fromPendingCmds(snap.Batch)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d snapshot batch: %w", snap.Shard, err)
	}
	defJoins, err := fromPendingCmds(snap.DeferredJoins)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d snapshot joins: %w", snap.Shard, err)
	}
	if mailboxCap < 1 {
		mailboxCap = 1
	}
	adm := newAdmission(snap.Config.M)
	adm.at = len(snap.Log)
	adm.restore(snap.Admission)
	sh := &Shard{
		id:        snap.Shard,
		cfg:       snap.Config,
		mbox:      make(chan *pending, mailboxCap),
		tickc:     make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		eng:       eng,
		adm:       adm,
		seed:      snap.Seed,
		log:       append([]core.Command(nil), snap.Log...),
		batch:     batch,
		defJoins:  defJoins,
		defLeaves: append([]string(nil), snap.DeferredLeaves...),
		drain:     make([]*pending, 0, mailboxCap+1),
	}
	sh.publishStatus()
	return sh, nil
}
