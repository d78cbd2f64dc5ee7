package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
)

// Options configures a Server.
type Options struct {
	// Shards is the number of independent engine shards (>= 1).
	Shards int
	// Config is the per-shard engine configuration.
	Config ShardConfig
	// MailboxCap bounds each shard's mailbox; a full mailbox answers 429.
	// Default 256.
	MailboxCap int
	// RetryAfterSeconds is advertised in the Retry-After header of 429
	// responses. Default 1.
	RetryAfterSeconds int
	// Snapshots optionally restores shards from a previous run. Each
	// snapshot's Shard index must be in [0, Shards); missing indices
	// start fresh.
	Snapshots []*Snapshot
}

// Server owns the shard set and the HTTP surface. It does not own a
// listener or the wall clock: cmd/pd2d wires Handler() into an
// http.Server and pumps shard ticks. Lifecycle is New → Start → (serve
// traffic) → quiesce HTTP → Stop → Snapshots.
//
// Shard slots are atomic pointers so the cluster layer can replace a
// live shard (InstallShard: migration receive, follower promotion)
// while handlers race it: a handler that grabbed the outgoing shard
// completes or gets 503 via the shard's done channel, and everything
// after the swap sees the replacement.
type Server struct {
	shards     []atomic.Pointer[Shard]
	mux        *http.ServeMux
	retryAfter string
	mailboxCap int
	stopping   atomic.Bool
	cstats     atomic.Pointer[ClusterStats]
}

// New builds a stopped server.
func New(opts Options) (*Server, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("serve: need at least one shard, got %d", opts.Shards)
	}
	if opts.MailboxCap == 0 {
		opts.MailboxCap = 256
	}
	if opts.RetryAfterSeconds < 1 {
		opts.RetryAfterSeconds = 1
	}
	restore := make(map[int]*Snapshot, len(opts.Snapshots))
	for _, snap := range opts.Snapshots {
		if snap.Shard < 0 || snap.Shard >= opts.Shards {
			return nil, fmt.Errorf("serve: snapshot for shard %d outside [0,%d)", snap.Shard, opts.Shards)
		}
		if _, dup := restore[snap.Shard]; dup {
			return nil, fmt.Errorf("serve: duplicate snapshot for shard %d", snap.Shard)
		}
		restore[snap.Shard] = snap
	}
	s := &Server{
		shards:     make([]atomic.Pointer[Shard], opts.Shards),
		retryAfter: strconv.Itoa(opts.RetryAfterSeconds),
		mailboxCap: opts.MailboxCap,
	}
	for i := range s.shards {
		var (
			sh  *Shard
			err error
		)
		if snap, ok := restore[i]; ok {
			sh, err = restoreShard(snap, opts.MailboxCap)
		} else {
			sh, err = newShard(i, opts.Config, opts.MailboxCap)
		}
		if err != nil {
			return nil, err
		}
		s.shards[i].Store(sh)
	}
	s.mux = s.buildMux()
	return s, nil
}

// shardAt returns the shard currently occupying slot i.
func (s *Server) shardAt(i int) *Shard { return s.shards[i].Load() }

// Start launches every shard's single-writer loop.
func (s *Server) Start() {
	for i := range s.shards {
		s.shardAt(i).start()
	}
}

// Stop drains and stops every shard. The HTTP side must be quiesced
// first (http.Server.Shutdown); in-flight handlers unblock via the
// shard done channels.
func (s *Server) Stop() {
	s.stopping.Store(true)
	for i := range s.shards {
		s.shardAt(i).stop()
	}
}

// Snapshots returns every shard's snapshot, its complete tail. Call
// after Stop.
func (s *Server) Snapshots() []*Snapshot {
	out := make([]*Snapshot, len(s.shards))
	for i := range s.shards {
		out[i], _ = s.shardAt(i).tail(0, 0) // from 0 is always in range
	}
	return out
}

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// ShardTick returns shard i's tick channel for the external clock.
func (s *Server) ShardTick(i int) chan<- struct{} { return s.shardAt(i).TickC() }

// InstallShard replaces slot snap.Shard with a shard restored from the
// snapshot, started and ready for traffic. The restore replays the
// snapshot log on a fresh engine, verifies its engine and books
// digests and folds its books, so a migration receiver or a promoted
// follower cannot install corrupt state; a tail that is not complete
// (From != 0) is refused. The outgoing shard is drained and stopped
// after the swap: handlers that already resolved it finish against it
// (or get 503 once it is down), new requests see the replacement.
// Returns the restore error without touching the slot.
func (s *Server) InstallShard(snap *Snapshot) error {
	if snap.Shard < 0 || snap.Shard >= len(s.shards) {
		return fmt.Errorf("serve: install for shard %d outside [0,%d)", snap.Shard, len(s.shards))
	}
	sh, err := restoreShard(snap, s.mailboxCap)
	if err != nil {
		return err
	}
	sh.start()
	if old := s.shards[snap.Shard].Swap(sh); old != nil {
		old.stop()
	}
	return nil
}

// ShardTail fetches shard i's replication tail from log index `from`
// through the shard's mailbox, so the tail is slot-atomic with respect
// to every other mutation. It is the in-process face of the
// /v1/shards/{shard}/log endpoint, used by the cluster layer's
// replication push.
func (s *Server) ShardTail(i, from int) (*Tail, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("serve: shard %d not in [0,%d)", i, len(s.shards))
	}
	sh := s.shardAt(i)
	p := sh.pool.newPending()
	p.kind = pendLog
	p.from = from
	rep, err := s.exchangeErr(sh, p)
	if err != nil {
		return nil, err
	}
	return rep.tail, rep.err
}

// ShardSeq returns shard i's mutation sequence: the command records and
// advances its current instance has handled. The shard counts and
// publishes a record before it replies, so a sequence read after a
// mutation's handler returned covers that mutation, and any tail whose
// Seq reaches it carries the mutation. The count restarts at zero when
// InstallShard replaces the instance.
func (s *Server) ShardSeq(i int) int64 { return s.shardAt(i).view.seq() }

// Advance steps shard i's clock by slots through the mailbox — the
// in-process equivalent of POST /v1/shards/{shard}/advance, used by the
// cluster layer's tick path so replicated advances stay slot-atomic.
func (s *Server) Advance(i int, slots int64) (int64, error) {
	if i < 0 || i >= len(s.shards) {
		return 0, fmt.Errorf("serve: shard %d not in [0,%d)", i, len(s.shards))
	}
	sh := s.shardAt(i)
	p := sh.pool.newPending()
	p.kind = pendAdvance
	p.slots = slots
	rep, err := s.exchangeErr(sh, p)
	if err != nil {
		return 0, err
	}
	return rep.now, nil
}

// exchangeErr is exchange for in-process callers: same ownership
// protocol, errors instead of HTTP replies. Unlike exchange, it
// consumes the record on every path: replies carry fresh copies (never
// pooled storage), so the record is freed as soon as the reply lands,
// and the only non-freeing path deliberately abandons it to a draining
// shard. Registered as an unconditional transfer in ownerXferTable.
func (s *Server) exchangeErr(sh *Shard, p *pending) (reply, error) {
	if s.stopping.Load() {
		sh.pool.freePending(p)
		return reply{}, errors.New("serve: server is shutting down")
	}
	if !sh.submit(p) {
		sh.pool.freePending(p)
		return reply{}, errors.New("serve: shard mailbox is full")
	}
	select {
	case rep := <-p.reply:
		sh.pool.freePending(p)
		return rep, nil
	case <-sh.done:
		select {
		case rep := <-p.reply:
			sh.pool.freePending(p)
			return rep, nil
		default:
			return reply{}, errors.New("serve: shard stopped before replying")
		}
	}
}

// Handler returns the HTTP surface: the /v1 API, /metrics, /healthz,
// and /debug/pprof.
func (s *Server) Handler() http.Handler { return s.mux }

// AttachClusterStats hands the server the cluster layer's gauges:
// /metrics starts rendering them and shard status replies carry the
// role/lag/migration fields.
func (s *Server) AttachClusterStats(cs *ClusterStats) { s.cstats.Store(cs) }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{shard}/commands", s.handleCommands)
	mux.HandleFunc("POST /v1/shards/{shard}/advance", s.handleAdvance)
	mux.HandleFunc("GET /v1/shards/{shard}", s.handleQuery)
	mux.HandleFunc("GET /v1/shards/{shard}/state", s.handleState)
	mux.HandleFunc("GET /v1/shards/{shard}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/shards/{shard}/log", s.handleLog)
	mux.HandleFunc("GET /v1/shards", s.handleList)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// shardFrom resolves the {shard} path segment; replies and returns nil
// on failure.
func (s *Server) shardFrom(w http.ResponseWriter, r *http.Request) *Shard {
	id, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || id < 0 || id >= len(s.shards) {
		writeError(w, http.StatusNotFound, errBadShard,
			fmt.Sprintf("shard %q not in [0,%d)", r.PathValue("shard"), len(s.shards)))
		return nil
	}
	return s.shardAt(id)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client gone; nothing useful to do with a short write
}

func writeError(w http.ResponseWriter, code int, kind, reason string) {
	writeJSON(w, code, ErrorResponse{Error: kind, Reason: reason})
}

// writeRaw sends a pre-encoded body. Content-Length is set explicitly
// because without it net/http chunks any reply larger than its 2 KB
// buffer.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // client gone; nothing useful to do with a short write
}

// readBody drains r into dst (reusing its capacity), the pooled-buffer
// replacement for io.ReadAll.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ReplyReadError answers a body-read error: 413 with its own wire kind
// when the MaxBytesReader limit was the cause (so clients can tell
// "shrink the batch" from "fix the request"), 400 otherwise. The
// cluster router reads mutation bodies itself and answers through it
// too.
func ReplyReadError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, errTooLarge,
			fmt.Sprintf("request body exceeds %d-byte limit", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, errInvalid, "reading body: "+err.Error())
}

// exchange submits p to sh and waits for the reply. On a false return
// the record has been freed (or deliberately abandoned in the shutdown
// race) and an error response written. On a true return the caller owns
// the record — it may encode the response from the record's pooled
// buffers — and must freePending it afterwards.
func (s *Server) exchange(w http.ResponseWriter, sh *Shard, p *pending) (reply, bool) {
	if s.stopping.Load() {
		sh.pool.freePending(p)
		writeError(w, http.StatusServiceUnavailable, errDraining, "server is shutting down")
		return reply{}, false
	}
	if !sh.submit(p) {
		sh.pool.freePending(p)
		sh.reqs.backpressured.Add(1)
		w.Header().Set("Retry-After", s.retryAfter)
		writeError(w, http.StatusTooManyRequests, errFull, "shard mailbox is full; retry later")
		return reply{}, false
	}
	select {
	case rep := <-p.reply:
		return rep, true
	case <-sh.done:
		// The loop exited. It may have replied just before exiting, or the
		// record may still sit in the dead mailbox.
		select {
		case rep := <-p.reply:
			return rep, true
		default:
			// Unreplied and unreachable: abandon the record (its reply
			// channel may yet receive nothing; reusing it would be unsound).
			writeError(w, http.StatusServiceUnavailable, errDraining, "shard stopped before replying")
			return reply{}, false
		}
	}
}

// handleCommands accepts one command object or an array of them. The
// whole body is decoded and validated before anything reaches the
// shard, so a malformed batch is rejected atomically with 400. The
// round trip — read, decode, admit, encode — runs entirely in the
// record's pooled buffers; see codec.go for the wire compatibility
// contract.
func (s *Server) handleCommands(w http.ResponseWriter, r *http.Request) {
	sh := s.shardFrom(w, r)
	if sh == nil {
		return
	}
	p := sh.pool.newPending()
	var err error
	p.body, err = readBody(p.body[:0], http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		sh.pool.freePending(p)
		ReplyReadError(w, err)
		return
	}
	var batch bool
	p.cmds, p.esc, batch, err = decodeCommands(p.body, p.esc, p.cmds[:0])
	if err != nil {
		sh.pool.freePending(p)
		writeError(w, http.StatusBadRequest, errInvalid, "decoding commands: "+err.Error())
		return
	}
	if len(p.cmds) == 0 {
		sh.pool.freePending(p)
		writeError(w, http.StatusBadRequest, errInvalid, "empty command batch")
		return
	}
	p.kind = pendCommands
	rep, ok := s.exchange(w, sh, p)
	if !ok {
		return
	}
	if batch {
		p.out = appendCommandResults(p.out[:0], rep.results)
		writeRaw(w, http.StatusOK, p.out)
	} else {
		res := &rep.results[0]
		code := http.StatusOK
		if res.Code != 0 {
			code = res.Code
		}
		p.out = appendCommandResultLine(p.out[:0], res)
		writeRaw(w, code, p.out)
	}
	sh.pool.freePending(p)
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	sh := s.shardFrom(w, r)
	if sh == nil {
		return
	}
	p := sh.pool.newPending()
	var err error
	p.body, err = readBody(p.body[:0], http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		sh.pool.freePending(p)
		ReplyReadError(w, err)
		return
	}
	slots, err := decodeAdvance(p.body)
	if err != nil {
		sh.pool.freePending(p)
		writeError(w, http.StatusBadRequest, errInvalid, "decoding advance: "+err.Error())
		return
	}
	if slots < 0 || slots > 1<<20 {
		sh.pool.freePending(p)
		writeError(w, http.StatusBadRequest, errInvalid,
			fmt.Sprintf("slots %d outside [0, 2^20]", slots))
		return
	}
	p.kind = pendAdvance
	p.slots = slots
	rep, ok := s.exchange(w, sh, p)
	if !ok {
		return
	}
	p.out = appendAdvanceResponse(p.out[:0], rep.now)
	writeRaw(w, http.StatusOK, p.out)
	sh.pool.freePending(p)
}

// handleQuery answers a status read. A plain read copies what the
// shard's loop last published, so it never waits behind an advance and
// a full mailbox never refuses it; ?tasks=1 asks the loop, because
// per-task rows need the engine.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sh := s.shardFrom(w, r)
	if sh == nil {
		return
	}
	var st *ShardStatus
	if r.URL.Query().Get("tasks") == "" {
		if s.stopping.Load() {
			writeError(w, http.StatusServiceUnavailable, errDraining, "server is shutting down")
			return
		}
		sh.reqs.queries.Add(1)
		st = sh.view.read(&sh.reqs)
	} else {
		p := sh.pool.newPending()
		p.kind = pendQuery
		rep, ok := s.exchange(w, sh, p)
		if !ok {
			return
		}
		sh.pool.freePending(p) // the status reply is a fresh copy, not pooled
		st = rep.status
	}
	if cs := s.cstats.Load(); cs != nil {
		cs.fillStatus(sh.id, st)
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	sh := s.shardFrom(w, r)
	if sh == nil {
		return
	}
	p := sh.pool.newPending()
	p.kind = pendState
	rep, ok := s.exchange(w, sh, p)
	if !ok {
		return
	}
	sh.pool.freePending(p) // the state reply is a fresh copy, not pooled
	writeJSON(w, http.StatusOK, StateResponse{
		Shard:  sh.id,
		Now:    rep.now,
		Digest: rep.digest,
		State:  string(rep.state),
	})
}

// handleSnapshot serves the shard's snapshot: its complete tail, the
// same reply as /log?from=0.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if sh := s.shardFrom(w, r); sh != nil {
		s.writeTail(w, sh, 0)
	}
}

// handleLog serves the replication tail from ?from=N (default 0): the
// commands applied since that log index plus the staged batch — the
// pull half of primary→follower streaming and the fetch half of live
// migration.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	sh := s.shardFrom(w, r)
	if sh == nil {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, errInvalid, fmt.Sprintf("from %q is not a non-negative integer", q))
			return
		}
		from = n
	}
	s.writeTail(w, sh, from)
}

// writeTail cuts sh's tail from log index from through the mailbox, so
// it is slot-atomic, and writes it; a from past the log end is a 400.
func (s *Server) writeTail(w http.ResponseWriter, sh *Shard, from int) {
	p := sh.pool.newPending()
	p.kind = pendLog
	p.from = from
	rep, ok := s.exchange(w, sh, p)
	if !ok {
		return
	}
	sh.pool.freePending(p) // the tail reply is a fresh copy, not pooled
	if rep.err != nil {
		writeError(w, http.StatusBadRequest, errInvalid, rep.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = EncodeTail(w, rep.tail) // client gone; nothing useful to do with a short write
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type shardInfo struct {
		Shard  int    `json:"shard"`
		Policy string `json:"policy"`
		M      int    `json:"m"`
	}
	out := make([]shardInfo, len(s.shards))
	for i := range s.shards {
		sh := s.shardAt(i)
		out[i] = shardInfo{Shard: sh.id, Policy: sh.cfg.policyName(), M: sh.cfg.M}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	shards := make([]*Shard, len(s.shards))
	for i := range s.shards {
		shards[i] = s.shardAt(i)
	}
	_ = writeMetrics(w, shards, s.cstats.Load()) // client gone; nothing useful to do
}
