// Fixture for ownxfer's stamp and escape rules: a miniature subtask
// pool with reuse stamps, mirroring the scheduler's free list. The
// annotation table (annotations.go) registers alloc/free/rec/stamp,
// the event sink, and the owner fields last/live/pool.
package poolescape

// rec is the pooled record; stamp is its reuse generation.
type rec struct {
	stamp uint64
	key   int64
}

// event is the registered sink: it may hold a pooled pointer only
// together with the pointer's stamp.
type event struct {
	at    int64
	sub   *rec
	stamp uint64
}

// owner holds the pool and the registered ownership fields.
type owner struct {
	last *rec   // owner field
	live []*rec // owner field
	pool []*rec // owner field (the free list)
	held *rec   // NOT an owner field
	byID map[int64]*rec
	evs  []event
}

func (o *owner) alloc() *rec {
	n := len(o.pool)
	if n == 0 {
		return &rec{}
	}
	r := o.pool[n-1]
	o.pool = o.pool[:n-1]
	return r
}

func (o *owner) free(r *rec) {
	r.stamp++
	o.pool = append(o.pool, r)
}

// ---------------------------------------------------------------------
// True positives.

// badUnstampedEvent stores a pooled pointer into the sink without the
// reuse-stamp guard (rule 1).
func (o *owner) badUnstampedEvent(at int64) {
	r := o.alloc()
	o.evs = append(o.evs, event{at: at, sub: r})
	o.last = r
}

// badHold stores a pooled pointer into an unregistered field (rule 2).
func (o *owner) badHold() {
	r := o.alloc()
	o.held = r
}

// badIndex stores a pooled pointer into an element of an unregistered
// container field (rule 2).
func (o *owner) badIndex(id int64) {
	r := o.alloc()
	o.byID[id] = r
}

// badClosure captures a pooled pointer in a closure that outlives the
// slot (rule 2).
func (o *owner) badClosure() func() uint64 {
	r := o.alloc()
	return func() uint64 { return r.stamp }
}

// badUseAfterFree reads through an alias after the record was retired
// (rule 3).
func (o *owner) badUseAfterFree() int64 {
	r := o.alloc()
	o.free(r)
	return int64(r.stamp)
}

// ---------------------------------------------------------------------
// Accepted negatives.

// okStamped stores the pointer together with its stamp.
func (o *owner) okStamped(at int64) {
	r := o.alloc()
	o.evs = append(o.evs, event{at: at, sub: r, stamp: r.stamp})
	o.last = r
}

// okOwner stores only into registered owner fields.
func (o *owner) okOwner() {
	r := o.alloc()
	o.last = r
	o.live = append(o.live, r)
}

// okImmediate invokes the closure on the spot; the pointer does not
// outlive the slot.
func (o *owner) okImmediate() uint64 {
	r := o.alloc()
	v := func() uint64 { return r.stamp }()
	o.last = r
	return v
}

// okRealloc re-arms the alias by reallocating after free.
func (o *owner) okRealloc() *rec {
	r := o.alloc()
	o.free(r)
	r = o.alloc()
	o.last = r
	return r
}

// ---------------------------------------------------------------------
// Path-sensitive rule-3 cases: a free poisons exactly the paths that
// run through it, and every join those paths reach.

// okFreeOnErrPath frees on the error branch only; the happy path never
// runs through the free, so its reads are clean (TN).
func (o *owner) okFreeOnErrPath(n int) uint64 {
	r := o.alloc()
	if n < 0 {
		o.free(r)
		return 0
	}
	v := r.stamp
	o.last = r
	return v
}

// badLoopCarriedFree frees at the bottom of the loop body; the
// back-edge carries the dangling alias into the next iteration's read.
func badLoopCarriedFree(o *owner, n int) int64 {
	r := o.alloc()
	var sum int64
	for i := 0; i < n; i++ {
		sum += int64(r.stamp) // TP on the second iteration
		o.free(r)
	}
	return sum
}

// ---------------------------------------------------------------------
// Suppression.

// suppressedHold shows //lint:allow is honoured.
func (o *owner) suppressedHold() {
	r := o.alloc()
	o.held = r //lint:allow ownxfer fixture: suppression must be honoured
}

// ---------------------------------------------------------------------
// Aliases and borrowed records.

// badClosureTwoAliases captures two aliases of one record; the finding
// names the first captured alias in source order (rule 2).
func (o *owner) badClosureTwoAliases() func() uint64 {
	r := o.alloc()
	q := r
	o.last = r
	return func() uint64 { return q.stamp + r.stamp }
}

// badAliasAfterFree frees the record through one alias and reads it
// through others: every alias shares the record's fate (rule 3).
func (o *owner) badAliasAfterFree() uint64 {
	r := o.alloc()
	q := r
	var p = q
	o.free(r)
	return q.stamp + p.stamp
}

// okParkBorrowed parks records it did not acquire — one received from a
// channel, one passed in — in non-owner fields, as Shard.drain does
// with its mailbox records: rule 2 polices only records born at alloc.
func (o *owner) okParkBorrowed(in chan *rec, p *rec) {
	r := <-in
	o.held = r
	o.byID[p.key] = p
}
