package bench

import (
	"bufio"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Header names linking spans across processes' worth of layers: the
// client stamps every request with reqHeader; the push transport stamps
// every replication push with pushHeader so the follower's span can name
// its parent.
const (
	reqHeader  = "X-Bench-Req"
	pushHeader = "X-Bench-Push"
)

// A Span is one timed call at a layer boundary. Spans of one client
// request share Req; a push's Parent is the route span that made it and
// a follower span's Parent is its push.
type Span struct {
	ID, Parent, Req uint64
	Name            string
	Phase           phase
	Start, End      int64 // ns since the trace began
	N               int   // commands (client) or request bytes (push)
	Status          int   // HTTP status (push)
}

// phase is the part of the run a span fell in.
type phase int32

const (
	phaseOther    phase = iota // set-up, drain, checks
	phaseOpen                  // open-loop windows
	phaseCapacity              // capacity chunks
)

func (s *Span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Spans are recorded
// from the benchmark's own wrappers around each layer's public entry
// points: the serve and cluster handlers, and the cluster's HTTP client.
type tracer struct {
	t0     time.Time
	phase  atomic.Int32 // the current phase, stamped on every span
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []Span
	// route maps a goroutine running a route span to that span, so the
	// pushes it makes (synchronously, from the same goroutine) find
	// their parent.
	route sync.Map
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// setPhase marks the phase the run enters; a nil tracer (an untraced
// run) ignores it.
func (t *tracer) setPhase(p phase) {
	if t != nil {
		t.phase.Store(int32(p))
	}
}

func (t *tracer) add(s Span) {
	s.Phase = phase(t.phase.Load())
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// goid returns the current goroutine's ID, parsed from the header of its
// stack trace ("goroutine 123 [running]: ...").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// requestKind names a client-facing shard request: "cmd", "read" or
// "advance"; "" for everything else.
func requestKind(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/shards/")
	if !ok {
		return ""
	}
	_, op, _ := strings.Cut(rest, "/")
	switch {
	case r.Method == http.MethodGet && op == "":
		return "read"
	case r.Method == http.MethodPost && op == "commands":
		return "cmd"
	case r.Method == http.MethodPost && op == "advance":
		return "advance"
	}
	return ""
}

func headerID(r *http.Request, name string) uint64 {
	v, _ := strconv.ParseUint(r.Header.Get(name), 10, 64) // absent: 0
	return v
}

// serveHandler times serve.Server.Handler().ServeHTTP per shard request.
func (t *tracer) serveHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := requestKind(r)
		if kind == "" {
			h.ServeHTTP(w, r)
			return
		}
		s := Span{ID: t.nextID.Add(1), Req: headerID(r, reqHeader), Name: "serve." + kind, Start: t.now()}
		h.ServeHTTP(w, r)
		s.End = t.now()
		t.add(s)
	})
}

// nodeHandler times cluster.Node.Handler().ServeHTTP: client requests as
// route spans, replication pushes received as follower spans.
func (t *tracer) nodeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/cluster/shards/") && strings.HasSuffix(r.URL.Path, "/repl") {
			s := Span{ID: t.nextID.Add(1), Parent: headerID(r, pushHeader), Name: "cluster.follower", Start: t.now()}
			h.ServeHTTP(w, r)
			s.End = t.now()
			t.add(s)
			return
		}
		kind := requestKind(r)
		if kind == "" {
			h.ServeHTTP(w, r)
			return
		}
		s := Span{ID: t.nextID.Add(1), Req: headerID(r, reqHeader), Name: "cluster.route." + kind, Start: t.now()}
		g := goid()
		t.route.Store(g, s.ID)
		h.ServeHTTP(w, r)
		t.route.Delete(g)
		s.End = t.now()
		t.add(s)
	})
}

// pushTransport is the cluster nodes' HTTP transport: it times every
// replication push and stamps it so the follower span links back.
type pushTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (p *pushTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(r.URL.Path, "/repl") {
		return p.base.RoundTrip(r)
	}
	s := Span{ID: p.t.nextID.Add(1), Name: "cluster.push", N: int(r.ContentLength)}
	if parent, ok := p.t.route.Load(goid()); ok {
		s.Parent = parent.(uint64)
	}
	r2 := r.Clone(r.Context())
	r2.Header.Set(pushHeader, strconv.FormatUint(s.ID, 10))
	s.Start = p.t.now()
	resp, err := p.base.RoundTrip(r2)
	s.End = p.t.now()
	if err == nil {
		s.Status = resp.StatusCode
	}
	p.t.add(s)
	return resp, err
}

// clientSpans records one phase's requests as seen by the load
// connection, from the flush that sent each to the read of its reply.
func (t *tracer) clientSpans(items []item, start time.Time, res *phaseResult) {
	off := int64(start.Sub(t.t0))
	p := phase(t.phase.Load())
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range items {
		it := &items[i]
		t.spans = append(t.spans, Span{
			ID: t.nextID.Add(1), Req: it.id, Name: "client." + it.kind.String(), Phase: p,
			Start: off + int64(res.sent[i]), End: off + int64(res.recv[i]), N: it.n,
		})
	}
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(parent *Span, children []*Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), int64(-1<<62)
	for _, v := range ivs {
		if v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.dur() - covered
}

// writeFile stores the spans, one array per span under named columns.
func (t *tracer) writeFile(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	b := make([]byte, 0, 256)
	b = append(b, `{"workload":`...)
	b = strconv.AppendQuote(b, workload)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, seed, 10)
	b = append(b, `,"columns":["id","parent","req","name","phase","start_ns","end_ns","n","status"],"phases":["other","open","capacity"],"spans":[`...)
	_, _ = bw.Write(b) // bufio errors are sticky; Flush reports them
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n["...)
		b = strconv.AppendUint(b, s.ID, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, s.Parent, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, s.Req, 10)
		b = append(b, ',')
		b = strconv.AppendQuote(b, s.Name)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.Phase), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.End, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.N), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.Status), 10)
		b = append(b, ']')
		_, _ = bw.Write(b)
	}
	_, _ = bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
