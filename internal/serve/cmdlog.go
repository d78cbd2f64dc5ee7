package serve

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/frac"
)

// cmdLog is a shard's applied command log, held as one pointer-free
// byte slice of varint records that the collector never scans. A record
// is
//
//	one byte       the op (bits 0-2) and the recWeight, recGroup and
//	               recArg presence flags
//	zigzag varint  At minus the previous record's At (0 before the first)
//	uvarint        the task name's index in names
//	zigzag varint  the weight's num, then its den as a uvarint, when
//	               Weight != frac.Rat{}
//	uvarint        the group's index in names, when Group != ""
//	zigzag varint  Arg, when Arg != 0
//
// so a same-slot reweight to a weight with a small num and den, on a
// shard of under 128 names, takes 5 bytes against a core.Command's 72. Every logMarkEvery records a mark keeps the record's
// byte offset and the At before it, so a tail cut from index i decodes
// only from the mark at or below i. Every op fits three bits: a logged
// command has passed Scheduler.Apply, which refuses unknown ops.
type cmdLog struct {
	buf   []byte
	n     int   // records in buf
	at    int64 // At of the last record
	marks []logMark
	// names is the name table of tasks and groups. On a primary each
	// entry is admission's interned string, so the table shares its
	// bytes; a follower keeps one copy per name.
	names []string
	index map[string]uint32
}

// A logMark locates record k·logMarkEvery: its byte offset in buf and
// the At of the record before it.
type logMark struct {
	off int
	at  int64
}

// logMarkEvery is the mark spacing: a cut decodes at most 15 records it
// does not return, and the marks cost about a byte per record.
const logMarkEvery = 16

// Presence flags of a record's first byte.
const (
	recWeight = 1 << (3 + iota)
	recGroup
	recArg
)

// len returns the number of records.
func (l *cmdLog) len() int { return l.n }

// append encodes c as the log's next record.
func (l *cmdLog) append(c core.Command) {
	if l.n%logMarkEvery == 0 {
		l.marks = append(l.marks, logMark{off: len(l.buf), at: l.at})
	}
	head := byte(c.Op)
	if c.Weight != (frac.Rat{}) {
		head |= recWeight
	}
	if c.Group != "" {
		head |= recGroup
	}
	if c.Arg != 0 {
		head |= recArg
	}
	b := append(l.buf, head)
	b = appendVarint(b, c.At-l.at)
	b = appendUvarint(b, uint64(l.nameIndex(c.Task)))
	if head&recWeight != 0 {
		b = appendVarint(b, c.Weight.Num())
		b = appendUvarint(b, uint64(c.Weight.Den()))
	}
	if head&recGroup != 0 {
		b = appendUvarint(b, uint64(l.nameIndex(c.Group)))
	}
	if head&recArg != 0 {
		b = appendVarint(b, c.Arg)
	}
	l.buf = b
	l.at = c.At
	l.n++
}

// nameIndex returns name's index in the name table, adding it on first
// use.
func (l *cmdLog) nameIndex(name string) uint32 {
	if i, ok := l.index[name]; ok {
		return i
	}
	return l.addName(name)
}

// addName appends name to the name table.
//
//lint:allocok grows the name table; runs once per name, like newTaskEntry
func (l *cmdLog) addName(name string) uint32 {
	if l.index == nil {
		l.index = make(map[string]uint32)
	}
	i := uint32(len(l.names))
	l.names = append(l.names, name)
	l.index[name] = i
	return i
}

// from decodes the records from index i on, which must be in [0, len];
// the result is never nil.
func (l *cmdLog) from(i int) []core.Command {
	out := make([]core.Command, 0, l.n-i)
	if i == l.n {
		return out
	}
	mark := l.marks[i/logMarkEvery]
	b, at := l.buf[mark.off:], mark.at
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		b = b[n:]
		return v
	}
	varint := func() int64 {
		v, n := binary.Varint(b)
		b = b[n:]
		return v
	}
	for k := i - i%logMarkEvery; k < l.n; k++ {
		head := b[0]
		b = b[1:]
		at += varint()
		c := core.Command{At: at, Op: core.CommandOp(head & 7), Task: l.names[uvarint()]}
		if head&recWeight != 0 {
			num, den := varint(), int64(uvarint())
			if den == 1 {
				c.Weight = frac.FromInt(num) // exact for every num, math.MinInt64 too
			} else {
				c.Weight = frac.New(num, den) // already in lowest terms
			}
		}
		if head&recGroup != 0 {
			c.Group = l.names[uvarint()]
		}
		if head&recArg != 0 {
			c.Arg = varint()
		}
		if k >= i {
			out = append(out, c)
		}
	}
	return out
}

// appendUvarint is binary.AppendUvarint, written out so the hot path
// calls nothing outside the module.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendVarint is binary.AppendVarint: zigzag, so small negatives stay
// short.
func appendVarint(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v<<1)^uint64(v>>63))
}
