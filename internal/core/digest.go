package core

import "io"

// appendState appends the scheduler's complete observable state —
// clock, global counters, per-task exact accounting, misses,
// violations, and (when recorded) the full schedule with processor
// assignments — to dst in the canonical text form and returns the
// extended slice. Two schedulers that have followed the same history
// render identically; any divergence in schedules, CPUs, misses, drift
// or lag shows up as a differing byte. The rendering is deterministic:
// tasks in creation order, misses and schedule rows in the order they
// were recorded, all rationals in lowest terms.
//
// TestWriteStateMatchesFmt pins these bytes against an fmt-based
// reference renderer, so the hand-rolled formatting cannot drift from
// the documented format:
//
//	now=%d m=%d totalswt=%s holes=%d overhead=%d
//	task %s wt=%s swt=%s sched=%d sw=%s csw=%s ps=%s drift=%s maxdrift=%s lag=%s init=%d enact=%d miss=%d mig=%d pre=%d
//	miss %s sub=%d deadline=%d
//	violation %s
//	slot %d:[ %s/%d@%d]...
//
//lint:noalloc digest path: snapshots run per slot under pd2d
func (s *Scheduler) appendState(dst []byte) []byte {
	dst = append(dst, "now="...)
	dst = appendInt(dst, int64(s.now))
	dst = append(dst, " m="...)
	dst = appendInt(dst, int64(s.cfg.M))
	dst = append(dst, " totalswt="...)
	dst = s.totalSwt.Append(dst)
	dst = append(dst, " holes="...)
	dst = appendInt(dst, s.holes)
	dst = append(dst, " overhead="...)
	dst = appendInt(dst, s.overheadSlots)
	dst = append(dst, '\n')
	for _, ts := range s.tasks {
		s.syncTask(ts, s.now)
		m := ts.metrics()
		dst = append(dst, "task "...)
		dst = append(dst, m.Name...)
		dst = append(dst, " wt="...)
		dst = m.Weight.Append(dst)
		dst = append(dst, " swt="...)
		dst = m.SchedWeight.Append(dst)
		dst = append(dst, " sched="...)
		dst = appendInt(dst, m.Scheduled)
		dst = append(dst, " sw="...)
		dst = m.CumSW.Append(dst)
		dst = append(dst, " csw="...)
		dst = m.CumCSW.Append(dst)
		dst = append(dst, " ps="...)
		dst = m.CumPS.Append(dst)
		dst = append(dst, " drift="...)
		dst = m.Drift.Append(dst)
		dst = append(dst, " maxdrift="...)
		dst = m.MaxAbsDrift.Append(dst)
		dst = append(dst, " lag="...)
		dst = m.Lag.Append(dst)
		dst = append(dst, " init="...)
		dst = appendInt(dst, m.Initiations)
		dst = append(dst, " enact="...)
		dst = appendInt(dst, m.Enactments)
		dst = append(dst, " miss="...)
		dst = appendInt(dst, m.Misses)
		dst = append(dst, " mig="...)
		dst = appendInt(dst, m.Migrations)
		dst = append(dst, " pre="...)
		dst = appendInt(dst, m.Preemptions)
		dst = append(dst, '\n')
	}
	for _, miss := range s.misses {
		dst = append(dst, "miss "...)
		dst = append(dst, miss.Task...)
		dst = append(dst, " sub="...)
		dst = appendInt(dst, miss.Subtask)
		dst = append(dst, " deadline="...)
		dst = appendInt(dst, int64(miss.Deadline))
		dst = append(dst, '\n')
	}
	for _, v := range s.violations {
		dst = append(dst, "violation "...)
		dst = append(dst, v...)
		dst = append(dst, '\n')
	}
	for t, row := range s.schedule {
		dst = append(dst, "slot "...)
		dst = appendInt(dst, int64(t))
		dst = append(dst, ':')
		for _, e := range row {
			dst = append(dst, ' ')
			dst = append(dst, e.Task...)
			dst = append(dst, '/')
			dst = appendInt(dst, e.Subtask)
			dst = append(dst, '@')
			dst = appendInt(dst, int64(e.CPU))
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendInt is strconv.AppendInt base 10, local so the digest path has
// a single formatting dependency set.
//
//lint:noalloc digest path helper
func appendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		// -v overflows for MinInt64; render via the unsigned magnitude.
		return appendUint(dst, ^uint64(v)+1)
	}
	return appendUint(dst, uint64(v))
}

//lint:noalloc digest path helper
func appendUint(dst []byte, v uint64) []byte {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// WriteState writes the canonical rendering (see appendState) to w.
//
// This is the engine's snapshot hook for differential testing and for
// internal/serve's snapshot/restore machinery: a restored shard proves
// itself by matching the digest of the shard it replaced. The render
// buffer is retained on the scheduler, so steady-state snapshots do not
// allocate.
//
//lint:allocok writes through the caller's io.Writer; the render itself (appendState) is the checked hot path
func (s *Scheduler) WriteState(w io.Writer) error {
	s.stateBuf = s.appendState(s.stateBuf[:0])
	_, err := w.Write(s.stateBuf)
	return err
}

// StateDigest returns a 64-bit FNV-1a hash of WriteState — a compact
// equality witness for "these two schedulers are in byte-identical
// observable states".
//
// It renders at most once per engine change: the digest is memoized,
// and every exported mutator (Join, Leave, Initiate, DelayNext,
// MarkAbsent, Step) drops the memo on entry, error returns included.
// Readers never drop it — the render syncs lazy accrual to Now, and
// syncing again at the same clock changes nothing. WriteState always
// renders.
//
//lint:noalloc digest path: hashed every slot by pd2d status reporting
func (s *Scheduler) StateDigest() uint64 {
	if s.digestOK {
		return s.digest
	}
	s.stateBuf = s.appendState(s.stateBuf[:0])
	// Inlined FNV-1a (hash/fnv's New64a allocates its state).
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, c := range s.stateBuf {
		h ^= uint64(c)
		h *= prime64
	}
	s.digest, s.digestOK = h, true
	return h
}
