package serve

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/frac"
)

// cmdLog is a shard's applied command log, held as one pointer-free
// byte slice of varint records that the collector never scans. A record
// is
//
//	one byte       the op (bits 0-2), the recWeight, recGroup and recArg
//	               presence flags, recSameAt and recTabled
//	zigzag varint  At minus the previous record's At (0 before the
//	               first), unless recSameAt says the step is 0
//	uvarint        the task name's index in names
//	one byte       the weight's index in weights, when recTabled; else
//	zigzag varint  the weight's num, then its den as a uvarint, when
//	               Weight != frac.Rat{}
//	uvarint        the group's index in names, when Group != ""
//	zigzag varint  Arg, when Arg != 0
//
// so a same-slot reweight to one of the log's first logWeights distinct
// weights, on a shard of under 128 names, takes 3 bytes against a
// core.Command's 72. Every logMarkEvery records a mark keeps the
// record's byte offset and the At before it, so a tail cut from index i
// decodes only from the mark at or below i. Every op fits three bits: a
// logged command has passed Scheduler.Apply, which refuses unknown ops.
type cmdLog struct {
	buf []byte
	n   int   // records in buf
	at  int64 // At of the last record
	// markOff[k] and markAt[k] locate record k·logMarkEvery: its byte
	// offset in buf and the At of the record before it. Two slices, so a
	// mark costs 12 bytes, not a padded struct's 16.
	markOff []uint32
	markAt  []int64
	// names is the name table of tasks and groups. On a primary each
	// entry is admission's interned string, so the table shares its
	// bytes; a follower keeps one copy per name.
	names []string
	index map[string]uint32
	// weights is the weight table: the log's first logWeights distinct
	// weights, in order of first use, found through wtIndex, an
	// open-addressed index holding a weight's position plus one (0 is
	// empty). A later weight is written inline, so no stream of weights
	// costs more than it would without the table.
	weights []frac.Rat
	wtIndex [2 * logWeights]uint8
}

// logMarkEvery is the mark spacing: a cut decodes at most 31 records it
// does not return, and the marks cost 0.375 bytes a record.
const logMarkEvery = 32

// logWeights is the weight table's size, so an index is one byte and
// wtIndex stays at most half full.
const logWeights = 128

// maxRecord bounds one record's bytes: the head, four 10-byte varints
// (step, num, den, Arg) and two 5-byte name indexes.
const maxRecord = 1 + 4*binary.MaxVarintLen64 + 2*binary.MaxVarintLen32

// Flags of a record's first byte.
const (
	recWeight = 1 << (3 + iota)
	recGroup
	recArg
	recSameAt
	recTabled
)

// len returns the number of records.
func (l *cmdLog) len() int { return l.n }

// append encodes c as the log's next record.
func (l *cmdLog) append(c core.Command) {
	if l.n%logMarkEvery == 0 {
		if uint64(len(l.buf)) > math.MaxUint32 {
			panic("serve: command log past 4 GiB; its marks hold 32-bit offsets")
		}
		l.markOff, l.markAt = grow(l.markOff, 1), grow(l.markAt, 1)
		l.markOff = append(l.markOff, uint32(len(l.buf)))
		l.markAt = append(l.markAt, l.at)
	}
	head := byte(c.Op)
	w := -1
	if c.Weight != (frac.Rat{}) {
		head |= recWeight
		if w = l.weightIndex(c.Weight); w >= 0 {
			head |= recTabled
		}
	}
	if c.Group != "" {
		head |= recGroup
	}
	if c.Arg != 0 {
		head |= recArg
	}
	if c.At == l.at {
		head |= recSameAt
	}
	l.buf = grow(l.buf, maxRecord)
	b := append(l.buf, head)
	if head&recSameAt == 0 {
		b = appendVarint(b, c.At-l.at)
	}
	b = appendUvarint(b, uint64(l.nameIndex(c.Task)))
	switch {
	case head&recTabled != 0:
		b = append(b, byte(w))
	case head&recWeight != 0:
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

// grow returns s with room for n more elements. It adds an eighth of
// s's length (and 64 elements) where append would add a quarter, so a
// long log carries at most about 11% slack; the copies stay amortized.
//
//lint:allocok grows the log or its marks by an eighth; amortized over the records that fill it
func grow[E any](s []E, n int) []E {
	if len(s)+n <= cap(s) {
		return s
	}
	t := make([]E, len(s), len(s)+n+len(s)/8+64)
	copy(t, s)
	return t
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

// weightIndex returns w's index in the weight table, adding w while the
// table has room, or -1 once it is full and w is not in it. wtIndex is
// probed linearly from a hash of w's num and den; it is never more than
// half full, so a probe meets w or an empty entry within a few steps,
// and a log of many distinct weights, whose later ones all miss, pays
// no scan of the table.
func (l *cmdLog) weightIndex(w frac.Rat) int {
	h := (uint64(w.Num())*0x9e3779b97f4a7c15 ^ uint64(w.Den())) * 0xff51afd7ed558ccd
	for s := h >> 56; ; s = (s + 1) % uint64(len(l.wtIndex)) {
		k := l.wtIndex[s]
		if k == 0 {
			if len(l.weights) == logWeights {
				return -1
			}
			l.wtIndex[s] = uint8(len(l.weights) + 1)
			return l.addWeight(w)
		}
		if l.weights[k-1] == w {
			return int(k - 1)
		}
	}
}

// addWeight appends w to the weight table.
//
//lint:allocok grows the weight table; runs at most logWeights times per log
func (l *cmdLog) addWeight(w frac.Rat) int {
	l.weights = append(l.weights, w)
	return len(l.weights) - 1
}

// from decodes the records from index i on, which must be in [0, len];
// the result is never nil.
func (l *cmdLog) from(i int) []core.Command {
	out := make([]core.Command, 0, l.n-i)
	if i == l.n {
		return out
	}
	k := i / logMarkEvery
	b, at := l.buf[l.markOff[k]:], l.markAt[k]
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
	for k *= logMarkEvery; k < l.n; k++ {
		head := b[0]
		b = b[1:]
		if head&recSameAt == 0 {
			at += varint()
		}
		c := core.Command{At: at, Op: core.CommandOp(head & 7), Task: l.names[uvarint()]}
		switch {
		case head&recTabled != 0:
			c.Weight = l.weights[b[0]]
			b = b[1:]
		case head&recWeight != 0:
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
