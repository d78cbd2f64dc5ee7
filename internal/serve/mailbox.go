package serve

import (
	"sync"

	"repro/internal/core"
)

// The mailbox is the only channel between HTTP handlers and a shard's
// single-writer goroutine: a bounded chan of *pending records drawn
// from a shard-local pool (registered in internal/analysis's ownxfer
// table — handlers must not retain a record past freePending). A full
// mailbox is surfaced to the client as 429 + Retry-After; the shard
// side never blocks handlers and never drops a dequeued record without
// replying.

// pendingKind discriminates what a mailbox record asks the shard to do.
//
//lint:exhaustive -- every mailbox request the shard loop must answer
type pendingKind uint8

const (
	// pendCommands carries a batch of parsed mutations for admission.
	pendCommands pendingKind = iota
	// pendAdvance asks the shard to step its clock.
	pendAdvance
	// pendQuery asks for a ShardStatus with per-task rows (a status
	// read without them copies the shard's view instead).
	pendQuery
	// pendState asks for the canonical engine-state dump and digest.
	pendState
	// pendLog asks for the tail from a log index: the commands applied
	// since, plus the admitted-but-unapplied batch (see Tail in
	// snapshot.go). From 0 is the shard's snapshot.
	pendLog
)

// wireCmd is one parsed, admission-ready command inside a pending: a
// join, leave or reweight whose Task is still unset. raw aliases the
// record's pooled body/esc buffers and is only valid until freePending;
// the shard stages the Command with Task set to the admission layer's
// canonical interned name (the *taskEntry's own string), so nothing
// downstream retains request memory.
type wireCmd struct {
	core.Command
	raw []byte
}

// pending is one pooled mailbox record. The reply channel is buffered
// (capacity 1) and reused across generations: the shard sends exactly
// one reply per dequeued record, the handler receives it and returns
// the record to the pool. stamp counts generations for ownxfer's
// reuse-stamp discipline; a handler holding a record across
// freePending would observe the bump.
type pending struct {
	stamp uint64
	kind  pendingKind

	cmds  []wireCmd // pendCommands
	slots int64     // pendAdvance
	from  int       // pendLog: first log index the tail should carry

	// Pooled wire buffers, owned by the record so the whole
	// read-decode-admit-encode round trip reuses one allocation set:
	// body holds the raw request bytes, esc the decoder's
	// escape-rewrite scratch (wireCmd.raw may alias either), results
	// the shard's per-command answers, and out the encoded response.
	body    []byte
	esc     []byte
	results []CommandResult
	out     []byte

	reply chan reply
}

// reply is the shard's answer to one pending record.
type reply struct {
	results []CommandResult // pendCommands: one per cmds entry
	now     int64           // engine clock after handling
	status  *ShardStatus    // pendQuery
	state   []byte          // pendState (WriteState text)
	digest  uint64          // pendState
	tail    *Tail           // pendLog: fresh copy, not pooled
	err     error           // request-level failure (draining, bad from)
}

// pendingPool recycles pending records. Access is mutex-guarded: the
// allocating side is any HTTP handler goroutine, the freeing side is
// whichever handler received the reply.
type pendingPool struct {
	mu   sync.Mutex
	free []*pending
}

// newPending returns a zeroed record with a live reply channel.
func (pp *pendingPool) newPending() *pending {
	pp.mu.Lock()
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free = pp.free[:n-1]
		pp.mu.Unlock()
		return p
	}
	pp.mu.Unlock()
	return &pending{reply: make(chan reply, 1)}
}

// Pooled-buffer ceilings: freePending drops a record's buffer that one
// large request grew past these, so the pool never pins the largest
// batch it carried. A 32-command record stays far below both.
const (
	maxPooledBytes = 64 << 10 // body, esc and out
	maxPooledCmds  = 1024     // cmds and results entries
)

// freePending returns a record to the pool. The caller must have
// received the record's reply (the channel must be empty) and must not
// touch the record afterwards.
func (pp *pendingPool) freePending(p *pending) {
	p.stamp++
	p.kind = 0
	clear(p.cmds)
	p.cmds = capped(p.cmds, maxPooledCmds)
	p.slots = 0
	p.from = 0
	p.body = capped(p.body, maxPooledBytes)
	p.esc = capped(p.esc, maxPooledBytes)
	clear(p.results)
	p.results = capped(p.results, maxPooledCmds)
	p.out = capped(p.out, maxPooledBytes)
	pp.mu.Lock()
	pp.free = append(pp.free, p)
	pp.mu.Unlock()
}

// capped returns buf cut to length 0 for the next request, or nil when
// its capacity is past ceiling.
func capped[T any](buf []T, ceiling int) []T {
	if cap(buf) > ceiling {
		return nil
	}
	return buf[:0]
}
