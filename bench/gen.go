package bench

import (
	"strconv"
	"time"

	"repro/internal/stats"
)

// reqKind classifies one request on a load connection.
type reqKind uint8

const (
	kindWrite   reqKind = iota // POST …/commands
	kindAdvance                // POST …/advance {"slots":1}
	kindRead                   // GET /v1/shards/{s}
)

// An item is one pre-encoded HTTP/1.1 request of a phase.
type item struct {
	kind  reqKind
	shard int
	n     int           // commands carried (writes)
	due   time.Duration // open loop: send time relative to the phase start
	id    uint64        // X-Bench-Req value on traced runs, else 0
	req   []byte
}

// shardGen produces the write bodies of one shard's command stream.
// advanced tells it the shard's clock moved one slot, so generators that
// track admission state (churn) know which joins have applied.
type shardGen interface {
	setup() []byte // the JSON body joining the initial population
	body(dst []byte, n int) []byte
	advanced()
}

// newShardGen seeds the generator for one (shard, connection) stream.
// Each stream has its own RNG, so a shard's commands depend only on the
// seed, never on pacing or on the other connection.
func newShardGen(w *Workload, seed uint64, shard, conn int) shardGen {
	rng := stats.NewStream(seed, uint64(shard*Conns+conn))
	if w.Churn {
		return newChurnGen(rng, shard, w.Tasks)
	}
	return &reweightGen{rng: rng, shard: shard, tasks: w.Tasks, single: w.Batch == 1}
}

// reweightGen reweights the set-up population between 1/64 and 2/64. The
// whole population at 2/64 weighs Tasks/32, far inside M for every
// workload, so no interleaving can draw a property-(W) rejection.
type reweightGen struct {
	rng    *stats.RNG
	shard  int
	tasks  int
	single bool // send one command as a bare object, not an array
}

func taskName(dst []byte, prefix byte, shard, i int) []byte {
	dst = append(dst, prefix)
	dst = strconv.AppendInt(dst, int64(shard), 10)
	dst = append(dst, '_')
	return strconv.AppendInt(dst, int64(i), 10)
}

func appendCmd(dst []byte, op string, name []byte, k int) []byte {
	dst = append(dst, `{"op":"`...)
	dst = append(dst, op...)
	dst = append(dst, `","task":"`...)
	dst = append(dst, name...)
	dst = append(dst, '"')
	if k > 0 {
		dst = append(dst, `,"weight":"`...)
		dst = strconv.AppendInt(dst, int64(k), 10)
		dst = append(dst, `/64"`...)
	}
	return append(dst, '}')
}

func (g *reweightGen) setup() []byte {
	b := []byte{'['}
	var name []byte
	for i := 0; i < g.tasks; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		name = taskName(name[:0], 't', g.shard, i)
		b = appendCmd(b, "join", name, 1)
	}
	return append(b, ']')
}

func (g *reweightGen) body(dst []byte, n int) []byte {
	var name [24]byte
	if !g.single {
		dst = append(dst, '[')
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		nm := taskName(name[:0], 't', g.shard, g.rng.Bounded(g.tasks))
		dst = appendCmd(dst, "reweight", nm, 1+g.rng.Bounded(2))
	}
	if !g.single {
		dst = append(dst, ']')
	}
	return dst
}

func (g *reweightGen) advanced() {}

// Churn weights are k/64 for k in [1, churnMaxK]. A change of 8/64 or
// more crosses the hybrid threshold of 1/8 and is enacted by leave/join
// (rules L/J); smaller ones by rules O/I.
const (
	churnMaxK = 14
	churnBigK = 8
	// A departing task may keep its weight while rule L defers its leave;
	// the generator counts it for this many slots after the leave.
	churnLinger = 256
	// Live, joining and lingering tasks together never exceed this, so
	// their weight stays at most 17*14/64 < 4 = M: no join is deferred
	// by condition J and no command is refused by property (W).
	churnCap     = 17
	churnMinLive = 4
	churnMaxLive = 12
)

type churnTask struct {
	name string
	k    int
}

// churnGen models the shard's admission state exactly: tasks joined this
// slot are not reweighted or left until the next advance applies them,
// and a task is never touched after its leave.
type churnGen struct {
	rng    *stats.RNG
	shard  int
	nextID int
	now    int64
	live   []churnTask // join applied, not leaving
	fresh  []churnTask // join admitted this slot
	leftAt []int64     // slots at which leaves were sent, oldest first
}

func newChurnGen(rng *stats.RNG, shard, tasks int) *churnGen {
	g := &churnGen{rng: rng, shard: shard}
	for i := 0; i < tasks; i++ {
		g.fresh = append(g.fresh, g.newTask())
	}
	return g
}

func (g *churnGen) newTask() churnTask {
	name := string(taskName(nil, 'c', g.shard, g.nextID))
	g.nextID++
	return churnTask{name: name, k: 1 + g.rng.Bounded(churnMaxK)}
}

func (g *churnGen) setup() []byte {
	b := []byte{'['}
	for i, t := range g.fresh {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCmd(b, "join", []byte(t.name), t.k)
	}
	return append(b, ']')
}

func (g *churnGen) advanced() {
	g.now++
	g.live = append(g.live, g.fresh...)
	g.fresh = g.fresh[:0]
	for len(g.leftAt) > 0 && g.now-g.leftAt[0] >= churnLinger {
		g.leftAt = g.leftAt[1:]
	}
}

func (g *churnGen) body(dst []byte, n int) []byte {
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = g.cmd(dst)
	}
	return append(dst, ']')
}

// cmd appends one command: 20% joins, 20% leaves, 40% small and 20%
// large reweights, falling back to a small reweight whenever the chosen
// op would break the admission invariants above.
func (g *churnGen) cmd(dst []byte) []byte {
	occupied := len(g.live) + len(g.fresh) + len(g.leftAt)
	switch r := g.rng.Bounded(10); {
	case r < 2 && occupied < churnCap && len(g.live)+len(g.fresh) < churnMaxLive:
		t := g.newTask()
		g.fresh = append(g.fresh, t)
		return appendCmd(dst, "join", []byte(t.name), t.k)
	case r >= 2 && r < 4 && len(g.live) > churnMinLive:
		i := g.rng.Bounded(len(g.live))
		t := g.live[i]
		g.live = append(g.live[:i], g.live[i+1:]...)
		g.leftAt = append(g.leftAt, g.now)
		return appendCmd(dst, "leave", []byte(t.name), 0)
	case r >= 8:
		t := &g.live[g.rng.Bounded(len(g.live))]
		if t.k+churnBigK <= churnMaxK || t.k-churnBigK >= 1 {
			if t.k+churnBigK <= churnMaxK {
				t.k += churnBigK + g.rng.Bounded(churnMaxK-t.k-churnBigK+1)
			} else {
				t.k -= churnBigK + g.rng.Bounded(t.k-churnBigK)
			}
			return appendCmd(dst, "reweight", []byte(t.name), t.k)
		}
	}
	t := &g.live[g.rng.Bounded(len(g.live))]
	d := 1 + g.rng.Bounded(churnBigK-1)
	if t.k+d > churnMaxK || (t.k-d >= 1 && g.rng.Bounded(2) == 0) {
		d = -d
	}
	if t.k+d < 1 {
		d = -d
	}
	t.k += d
	return appendCmd(dst, "reweight", []byte(t.name), t.k)
}

// connStream is one load connection's request sequence: writes to its
// shards in round-robin order, an advance after every AdvanceEvery-th
// write to a shard, and every ReadEvery-th request a status read.
type connStream struct {
	w      *Workload
	conn   int
	traced bool
	shards []int
	gens   map[int]shardGen
	writes map[int]int
	reqs   int
	nextW  int
	nextR  int
	seq    uint64
	body   []byte
}

// newStreams builds both connections' streams and the body joining each
// shard's population, which set-up sends and applies with one advance
// before any stream request.
func newStreams(w *Workload, seed uint64, traced bool) ([]*connStream, [][]byte) {
	streams := make([]*connStream, Conns)
	for c := range streams {
		cs := &connStream{
			w: w, conn: c, traced: traced,
			shards: w.ownedShards(c),
			gens:   make(map[int]shardGen),
			writes: make(map[int]int),
		}
		for _, s := range cs.shards {
			cs.gens[s] = newShardGen(w, seed, s, c)
		}
		streams[c] = cs
	}
	// The shard's owning connection joins its population.
	setup := make([][]byte, w.Shards)
	for s := range setup {
		setup[s] = streams[s%Conns].gens[s].setup()
	}
	for _, cs := range streams {
		for _, g := range cs.gens {
			g.advanced()
		}
	}
	return streams, setup
}

// next appends the connection's next request, plus the advance it
// triggers.
func (cs *connStream) next(dst []item) []item {
	cs.reqs++
	if cs.w.ReadEvery > 0 && cs.reqs%cs.w.ReadEvery == 0 {
		s := cs.shards[cs.nextR%len(cs.shards)]
		cs.nextR++
		return append(dst, cs.item(kindRead, s, 0, nil))
	}
	s := cs.shards[cs.nextW%len(cs.shards)]
	cs.nextW++
	g := cs.gens[s]
	cs.body = g.body(cs.body[:0], cs.w.Batch)
	dst = append(dst, cs.item(kindWrite, s, cs.w.Batch, cs.body))
	cs.writes[s]++
	if cs.writes[s]%cs.w.AdvanceEvery == 0 {
		g.advanced()
		dst = append(dst, cs.item(kindAdvance, s, 0, advanceBody))
	}
	return dst
}

// take generates n requests (not counting the advances they trigger).
func (cs *connStream) take(n int) []item {
	out := make([]item, 0, n+n/max(1, cs.w.AdvanceEvery)+1)
	for i := 0; i < n; i++ {
		out = cs.next(out)
	}
	return out
}

// paced generates n requests due one interval apart; an advance is due
// with the write it follows. Pacing only stamps due times: the requests
// themselves are the same whatever the interval.
func (cs *connStream) paced(n int, interval time.Duration) []item {
	items := cs.take(n)
	due, r := time.Duration(0), 0
	for i := range items {
		if items[i].kind != kindAdvance {
			due = time.Duration(r) * interval
			r++
		}
		items[i].due = due
	}
	return items
}

var advanceBody = []byte(`{"slots":1}`)

func (cs *connStream) item(kind reqKind, shard, n int, body []byte) item {
	it := item{kind: kind, shard: shard, n: n}
	if cs.traced {
		cs.seq++
		it.id = uint64(cs.conn+1)<<40 | cs.seq
	}
	it.req = encodeRequest(kind, shard, body, it.id)
	return it
}

// encodeRequest renders one HTTP/1.1 request.
func encodeRequest(kind reqKind, shard int, body []byte, id uint64) []byte {
	var dst []byte
	if kind == kindRead {
		dst = append(dst, "GET /v1/shards/"...)
		dst = strconv.AppendInt(dst, int64(shard), 10)
	} else {
		dst = append(dst, "POST /v1/shards/"...)
		dst = strconv.AppendInt(dst, int64(shard), 10)
		if kind == kindWrite {
			dst = append(dst, "/commands"...)
		} else {
			dst = append(dst, "/advance"...)
		}
	}
	dst = append(dst, " HTTP/1.1\r\nHost: pd2bench\r\n"...)
	if id != 0 {
		dst = append(dst, reqHeader+": "...)
		dst = strconv.AppendUint(dst, id, 10)
		dst = append(dst, "\r\n"...)
	}
	if kind != kindRead {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}
