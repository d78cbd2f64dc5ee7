package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// phaseResult is what one load phase observed on one connection.
type phaseResult struct {
	attempted, failed int
	cmds              int // commands acked
	firstErr          error
	// sent and recv are per-item times since the phase start: when the
	// writer sent the request and when its response was read.
	sent, recv []time.Duration
}

func (p *phaseResult) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// writer is the sending half of a phase.
type writer struct {
	c       *conn
	flushed int             // items already on the wire
	stop    <-chan struct{} // closed once the reader has given up
}

var errStopped = errors.New("reader stopped")

func (w *writer) flush(upTo int) error {
	w.flushed = upTo
	return w.c.bw.Flush()
}

// drive runs one phase on one connection: a writer goroutine sends the
// items in order, calling gate before each to wait until it may go, and
// the calling goroutine reads the responses in order, checking each and
// calling done after each.
func drive(c *conn, items []item, start time.Time, gate func(w *writer, i int) error, done func(i int)) *phaseResult {
	res := &phaseResult{sent: make([]time.Duration, len(items)), recv: make([]time.Duration, len(items))}
	stop := make(chan struct{})
	w := &writer{c: c, stop: stop}
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range items {
			if werr = gate(w, i); werr != nil {
				break
			}
			res.sent[i] = time.Since(start)
			if _, werr = c.bw.Write(items[i].req); werr != nil {
				break
			}
		}
		if werr == nil {
			werr = w.flush(len(items))
		}
		if werr != nil {
			c.close() // unblocks the reader
		}
	}()
	for i := range items {
		r, err := c.read()
		res.recv[i] = time.Since(start)
		if err != nil {
			// The connection is gone: every unanswered request failed.
			c.close()
			res.attempted += len(items) - i
			res.failed += len(items) - i
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("reading response %d of %d: %w", i+1, len(items), err)
			}
			break
		}
		res.attempted++
		if err := check(&items[i], r); err != nil {
			res.fail(err)
		} else if items[i].kind == kindWrite {
			res.cmds += items[i].n
		}
		if done != nil {
			done(i)
		}
	}
	close(stop)
	wg.Wait()
	if werr != nil && !errors.Is(werr, errStopped) && res.firstErr == nil {
		res.firstErr = fmt.Errorf("writing requests: %w", werr)
	}
	return res
}

// openLoop sends items at their due times, writing every overdue item in
// one flush, whatever the responses are doing. The writer never waits
// for a response, so a stall of the system delays no send: requests due
// during a stall queue at the server and their latency counts it.
func openLoop(c *conn, items []item, start time.Time) *phaseResult {
	return drive(c, items, start, func(w *writer, i int) error {
		for {
			d := items[i].due - time.Since(start)
			if d <= 0 {
				return nil
			}
			if w.flushed < i {
				if err := w.flush(i); err != nil {
					return err
				}
				continue
			}
			select {
			case <-w.stop:
				return errStopped
			case <-time.After(d):
			}
		}
	}, nil)
}

// A side is one server the rounds drive, the system or the reference,
// over its own connections with its own copy of the seeded streams.
type side struct {
	ref     bool
	conns   []*conn
	streams []*connStream
	tr      *tracer // the system's spans in a traced pass; nil otherwise
	s       *samples
	m       *measurement
}

// account counts the system's requests; a reference request that fails
// is a fault of the benchmark and fails the run.
func (sd *side) account(res *phaseResult) {
	if !sd.ref {
		sd.m.add(res)
	} else if res.firstErr != nil {
		sd.m.check(fmt.Errorf("reference: %w", res.firstErr))
	}
}

// open drives one round's open-loop window of n requests per
// connection, keeping no samples of the requests due before warm.
func (sd *side) open(n int, interval, warm time.Duration) {
	phase := make([][]item, len(sd.conns))
	for c, cs := range sd.streams {
		phase[c] = cs.paced(n, interval)
	}
	sd.tr.setPhase(phaseOpen)
	start := time.Now()
	results := runConns(sd.conns, func(c int) *phaseResult { return openLoop(sd.conns[c], phase[c], start) })
	for c, res := range results {
		sd.account(res)
		for i := range phase[c] {
			it := &phase[c][i]
			if it.due < warm || res.recv[i] == 0 {
				continue
			}
			// Latency runs from the send, not the due time: on a VM with
			// a coarse timer a sleep overshoots by up to a tick (about
			// 1ms), which is the generator's lateness, reported apart.
			lat := int64(res.recv[i] - res.sent[i])
			sd.s.late.Record(int64(res.sent[i] - it.due))
			switch it.kind {
			case kindWrite:
				sd.s.write.Record(lat)
			case kindRead:
				sd.s.read.Record(lat)
			}
		}
		if sd.tr != nil {
			sd.tr.clientSpans(phase[c], start, res)
		}
	}
	sd.tr.setPhase(phaseOther)
}

// capacity drives one round's closed-loop chunk of n requests per
// connection and adds it to the side's capacity. The system's chunk is
// exactly that, so both commits of a comparison apply the same log; the
// stateless reference repeats its chunk until minDur has passed, so
// that its rate is as steady as the system's.
func (sd *side) capacity(n int, minDur time.Duration) {
	phase := make([][]item, len(sd.conns))
	for c, cs := range sd.streams {
		phase[c] = cs.take(n)
	}
	sd.tr.setPhase(phaseCapacity)
	var elapsed time.Duration
	cmds := 0
	for {
		start := time.Now()
		results := runConns(sd.conns, func(c int) *phaseResult { return closedLoop(sd.conns[c], phase[c], start, pipeline) })
		elapsed += time.Since(start)
		for c, res := range results {
			sd.account(res)
			cmds += res.cmds
			if sd.tr != nil {
				sd.tr.clientSpans(phase[c], start, res)
			}
		}
		if !sd.ref || elapsed >= minDur {
			break
		}
	}
	sd.s.cmds += cmds
	sd.s.busy += elapsed
	sd.tr.setPhase(phaseOther)
}

// closedLoop keeps up to window requests in flight.
func closedLoop(c *conn, items []item, start time.Time, window int) *phaseResult {
	slots := make(chan struct{}, window)
	return drive(c, items, start, func(w *writer, i int) error {
		select {
		case slots <- struct{}{}:
			return nil
		default:
		}
		// The window is full: the reader frees a slot only for a
		// response, which needs the buffered requests on the wire.
		if err := w.flush(i); err != nil {
			return err
		}
		select {
		case slots <- struct{}{}:
			return nil
		case <-w.stop:
			return errStopped
		}
	}, func(int) { <-slots })
}
