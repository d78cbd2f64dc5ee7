package serve

import (
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
)

// Hand-rolled JSON codec for Tail, the state-transfer unit: every /log
// and /snapshot reply, every cluster push and every snapshot file goes
// through it, and Tail's MarshalJSON and UnmarshalJSON make it the one
// encoding/json reaches too. encoding/json walks a Tail by reflection,
// which made a follower's decode of a pushed tail cost several times its
// replay (docs/SERVE.md, "Why the tail codec stays").
//
// Like the wire codec (codec.go) it is byte-pinned to encoding/json on
// a Tail without these methods, in both directions:
//
//   - encodeTail writes exactly json.Marshal's bytes (field order,
//     omitempty, HTML escaping; a frac.Rat and a core.CommandOp as their
//     quoted text);
//   - UnmarshalJSON accepts exactly what json.Unmarshal accepts, with
//     the same result: keys matched under case folding, the last duplicate
//     key winning, a duplicate object merging into what the first one
//     decoded and an array decoding into the slice already there, null
//     leaving a field unchanged, unknown keys skipped but validated.
//
// tailcodec_test.go pins both against encoding/json, and FuzzTailCodec
// keeps fuzzing the agreement.

// tailFlush is the size at which EncodeTail writes its buffer out, so a
// long log streams through a bounded buffer rather than one the size of
// the log.
const tailFlush = 32 << 10

// EncodeTail writes t as a json.Encoder would, byte for byte: the
// compact encoding and a newline. It streams the log through a buffer
// of about tailFlush bytes; log is Tail's last key, so everything else
// is written first. The /log and /snapshot replies and pd2d's snapshot
// files are written through it.
func EncodeTail(w io.Writer, t *Tail) error {
	buf, err := encodeTail(make([]byte, 0, tailFlush+tailFlush/4), w, t)
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// MarshalJSON encodes t with the tail codec: json.Marshal's bytes for a
// Tail without this method. A cluster push is one.
func (t Tail) MarshalJSON() ([]byte, error) {
	return encodeTail(make([]byte, 0, 1024), nil, &t)
}

// UnmarshalJSON decodes data into t as json.Unmarshal would into a Tail
// without this method, merging into what t already holds. It is also
// the whole decoder for a body or a file: data may carry whitespace
// around the tail, and nothing else.
func (t *Tail) UnmarshalJSON(data []byte) error {
	d := tailDecoder{jsonCursor: jsonCursor{b: data}}
	d.ws()
	if err := d.tail(t); err != nil {
		return err
	}
	return d.trailing()
}

// ---------------------------------------------------------------------
// Encoder.

// encodeTail appends t's encoding to dst. With w set, it writes dst out
// and starts over each time the log takes dst past tailFlush bytes, and
// returns what is left to write.
func encodeTail(dst []byte, w io.Writer, t *Tail) ([]byte, error) {
	dst, err := appendTailHead(dst, t)
	if err != nil || len(t.Commands) == 0 {
		return append(dst, '}'), err
	}
	dst = append(dst, `,"log":[`...)
	for i := range t.Commands {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendCommandJSON(dst, &t.Commands[i]); err != nil {
			return dst, err
		}
		if w != nil && len(dst) >= tailFlush {
			if _, err := w.Write(dst); err != nil {
				return dst, err
			}
			dst = dst[:0]
		}
	}
	return append(dst, ']', '}'), nil
}

// appendTailHead appends every key of t but log, without the closing
// brace.
//
//lint:noalloc push encode path; appends into the caller's buffer (TestTailEncodeZeroAlloc)
func appendTailHead(dst []byte, t *Tail) ([]byte, error) {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, int64(t.Version), 10)
	dst = append(dst, `,"shard":`...)
	dst = strconv.AppendInt(dst, int64(t.Shard), 10)
	dst = appendShardConfig(append(dst, `,"config":`...), &t.Config)
	dst = appendSeed(append(dst, `,"seed":`...), &t.Seed)
	dst = append(dst, `,"from":`...)
	dst = strconv.AppendInt(dst, int64(t.From), 10)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(t.Total), 10)
	dst = append(dst, `,"now":`...)
	dst = strconv.AppendInt(dst, t.Now, 10)
	dst = append(dst, `,"digest":`...)
	dst = strconv.AppendUint(dst, t.Digest, 10)
	var err error
	if len(t.Batch) > 0 {
		if dst, err = appendCommandsJSON(append(dst, `,"batch":`...), t.Batch); err != nil {
			return dst, err
		}
	}
	if len(t.DeferredJoins) > 0 {
		if dst, err = appendCommandsJSON(append(dst, `,"deferred_joins":`...), t.DeferredJoins); err != nil {
			return dst, err
		}
	}
	if len(t.DeferredLeaves) > 0 {
		dst = appendStrings(append(dst, `,"deferred_leaves":`...), t.DeferredLeaves)
	}
	if a := t.Admission; a != nil {
		dst = appendStrings(append(dst, `,"admission":{"names":`...), a.Names)
		dst = append(dst, `,"requested":`...)
		if a.Requested == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i := range a.Requested {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONString(append(dst, `{"task":`...), a.Requested[i].Task)
				dst = appendRatJSON(append(dst, `,"weight":`...), a.Requested[i].Weight)
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
		if len(a.Pending) > 0 {
			dst = appendStrings(append(dst, `,"pending_joins":`...), a.Pending)
		}
		if len(a.Leaving) > 0 {
			dst = appendStrings(append(dst, `,"leaving":`...), a.Leaving)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"books_digest":`...)
	return strconv.AppendUint(dst, t.BooksDigest, 10), nil
}

//lint:noalloc push encode path
func appendShardConfig(dst []byte, c *ShardConfig) []byte {
	dst = append(dst, `{"m":`...)
	dst = strconv.AppendInt(dst, int64(c.M), 10)
	if c.Policy != "" {
		dst = appendJSONString(append(dst, `,"policy":`...), c.Policy)
	}
	dst = appendRatJSON(append(dst, `,"oi_threshold":`...), c.OIThreshold)
	if c.EarlyRelease {
		dst = append(dst, `,"early_release":true`...)
	}
	if c.RecordSchedule {
		dst = append(dst, `,"record_schedule":true`...)
	}
	dst = appendRatJSON(append(dst, `,"drift_bound":`...), c.DriftBound)
	return append(dst, '}')
}

// appendSeed writes model.System and model.Spec, which carry no JSON
// tags, under their Go field names.
//
//lint:noalloc push encode path
func appendSeed(dst []byte, s *model.System) []byte {
	dst = append(dst, `{"M":`...)
	dst = strconv.AppendInt(dst, int64(s.M), 10)
	dst = append(dst, `,"Tasks":`...)
	if s.Tasks == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range s.Tasks {
		sp := &s.Tasks[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(append(dst, `{"Name":`...), sp.Name)
		dst = appendRatJSON(append(dst, `,"Weight":`...), sp.Weight)
		dst = append(dst, `,"Join":`...)
		dst = strconv.AppendInt(dst, sp.Join, 10)
		dst = appendJSONString(append(dst, `,"Group":`...), sp.Group)
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}

// appendCommandsJSON writes a non-empty command slice as an array.
//
//lint:noalloc push encode path
func appendCommandsJSON(dst []byte, cmds []core.Command) ([]byte, error) {
	dst = append(dst, '[')
	for i := range cmds {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendCommandJSON(dst, &cmds[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// opJSON is each op's encoding, CommandOp.MarshalText quoted, indexed by
// op; an op past its end fails to encode, as MarshalText fails.
var opJSON = func() (names []string) {
	for op := core.CommandOp(0); ; op++ {
		text, err := op.MarshalText()
		if err != nil {
			return names
		}
		names = append(names, `"`+string(text)+`"`)
	}
}()

// appendCommandJSON writes one command: at, op and weight always (a
// frac.Rat is a struct, which omitempty never omits), task, group and
// arg unless empty.
//
//lint:noalloc push encode path
func appendCommandJSON(dst []byte, c *core.Command) ([]byte, error) {
	if int(c.Op) >= len(opJSON) {
		return dst, jsonErrf("core: unknown command op %d", uint8(c.Op))
	}
	dst = append(dst, `{"at":`...)
	dst = strconv.AppendInt(dst, c.At, 10)
	dst = append(dst, `,"op":`...)
	dst = append(dst, opJSON[c.Op]...)
	if c.Task != "" {
		dst = appendJSONString(append(dst, `,"task":`...), c.Task)
	}
	dst = appendRatJSON(append(dst, `,"weight":`...), c.Weight)
	if c.Group != "" {
		dst = appendJSONString(append(dst, `,"group":`...), c.Group)
	}
	if c.Arg != 0 {
		dst = append(dst, `,"arg":`...)
		dst = strconv.AppendInt(dst, c.Arg, 10)
	}
	return append(dst, '}'), nil
}

// appendStrings writes a string slice, nil as null.
//
//lint:noalloc push encode path
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

// appendRatJSON writes r as its quoted text; digits, '-' and '/' need
// no escaping.
//
//lint:noalloc push encode path
func appendRatJSON(dst []byte, r frac.Rat) []byte {
	dst = r.Append(append(dst, '"'))
	return append(dst, '"')
}

// ---------------------------------------------------------------------
// Decoder.

// tailDecoder decodes one tail. names holds one string per distinct
// name the tail carries, so a name repeated over a long log costs one
// allocation, not one per command.
type tailDecoder struct {
	jsonCursor
	names map[string]string
}

// intern returns b as a durable string, one per distinct name. The
// caller may then cut the escape scratch, which b may alias, back to
// where it stood before b was read: keys read before then, which an
// error message may still name, stay intact.
func (d *tailDecoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if d.names == nil {
		d.names = make(map[string]string)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// object decodes one object into a struct member by member, calling
// field with each key and the cursor on its value. null leaves the
// struct unchanged, and any other value that is not an object is an
// error, as json.Unmarshal has it.
func (d *tailDecoder) object(field func(key []byte) error) error {
	if d.i >= len(d.b) {
		return errUnexpectedEnd()
	}
	switch d.b[d.i] {
	case 'n':
		return d.null()
	case '{':
	default:
		return jsonErrf("invalid character %q where an object belongs", d.b[d.i])
	}
	for more := d.openObject(); more; {
		key, err := d.member()
		if err != nil {
			return err
		}
		if err := field(key); err != nil {
			return jsonErrf("%s: %v", key, err)
		}
		if more, err = d.next(); err != nil {
			return err
		}
	}
	return nil
}

func (d *tailDecoder) null() error {
	if !d.lit("null") {
		return jsonErrf("invalid literal")
	}
	return nil
}

// decodeArray decodes one array into *s as json.Unmarshal does into a
// slice: element i decodes into (*s)[i] while i is below the slice's
// capacity, merging with what is there, and into a zero element past
// it; the slice is then cut to the array's length. An empty array is an
// empty slice, and null is a nil one. elem decodes one element. hint,
// when the slice has no capacity, sizes its first allocation.
func decodeArray[T any](d *tailDecoder, s *[]T, hint int, elem func(*T) error) error {
	if d.i >= len(d.b) {
		return errUnexpectedEnd()
	}
	switch d.b[d.i] {
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
		*s = nil
		return nil
	case '[':
	default:
		return jsonErrf("invalid character %q where an array belongs", d.b[d.i])
	}
	d.i++
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
		*s = []T{}
		return nil
	}
	out := (*s)[:0]
	if cap(out) == 0 && hint > 0 {
		out = make([]T, 0, hint)
	}
	for {
		if len(out) < cap(out) {
			out = out[:len(out)+1]
		} else {
			var zero T
			out = append(out, zero)
		}
		if err := elem(&out[len(out)-1]); err != nil {
			return err
		}
		d.ws()
		if d.i >= len(d.b) {
			return errUnexpectedEnd()
		}
		switch d.b[d.i] {
		case ',':
			d.i++
			d.ws()
		case ']':
			d.i++
			*s = out
			return nil
		default:
			return jsonErrf("invalid character %q after array element", d.b[d.i])
		}
	}
}

// tail decodes the top-level object. The log's first allocation is
// sized from total − from when both came first, as they do in every
// tail encodeTail writes.
func (d *tailDecoder) tail(t *Tail) error {
	return d.object(func(key []byte) error {
		switch {
		case jsonKeyIs(key, "version"):
			return d.intValue(&t.Version)
		case jsonKeyIs(key, "shard"):
			return d.intValue(&t.Shard)
		case jsonKeyIs(key, "config"):
			return d.config(&t.Config)
		case jsonKeyIs(key, "seed"):
			return d.seed(&t.Seed)
		case jsonKeyIs(key, "from"):
			return d.intValue(&t.From)
		case jsonKeyIs(key, "total"):
			return d.intValue(&t.Total)
		case jsonKeyIs(key, "now"):
			return d.int64Value(&t.Now)
		case jsonKeyIs(key, "digest"):
			return d.uint64Value(&t.Digest)
		case jsonKeyIs(key, "batch"):
			return d.commands(&t.Batch, 0)
		case jsonKeyIs(key, "deferred_joins"):
			return d.commands(&t.DeferredJoins, 0)
		case jsonKeyIs(key, "deferred_leaves"):
			return d.strings(&t.DeferredLeaves)
		case jsonKeyIs(key, "admission"):
			return d.admission(&t.Admission)
		case jsonKeyIs(key, "books_digest"):
			return d.uint64Value(&t.BooksDigest)
		case jsonKeyIs(key, "log"):
			// An encoded entry takes over 30 bytes, so one per 16 bytes
			// left bounds what a false total can make it allocate.
			return d.commands(&t.Commands, min(t.Total-t.From, (len(d.b)-d.i)/16))
		}
		return d.skipValue(1)
	})
}

func (d *tailDecoder) config(c *ShardConfig) error {
	return d.object(func(key []byte) error {
		switch {
		case jsonKeyIs(key, "m"):
			return d.intValue(&c.M)
		case jsonKeyIs(key, "policy"):
			return d.stringValue(&c.Policy)
		case jsonKeyIs(key, "oi_threshold"):
			return d.ratValue(&c.OIThreshold)
		case jsonKeyIs(key, "early_release"):
			return d.boolValue(&c.EarlyRelease)
		case jsonKeyIs(key, "record_schedule"):
			return d.boolValue(&c.RecordSchedule)
		case jsonKeyIs(key, "drift_bound"):
			return d.ratValue(&c.DriftBound)
		}
		return d.skipValue(2)
	})
}

func (d *tailDecoder) seed(s *model.System) error {
	return d.object(func(key []byte) error {
		switch {
		case jsonKeyIs(key, "m"):
			return d.intValue(&s.M)
		case jsonKeyIs(key, "tasks"):
			return decodeArray(d, &s.Tasks, 0, func(sp *model.Spec) error {
				return d.object(func(key []byte) error {
					switch {
					case jsonKeyIs(key, "name"):
						return d.stringValue(&sp.Name)
					case jsonKeyIs(key, "weight"):
						return d.ratValue(&sp.Weight)
					case jsonKeyIs(key, "join"):
						return d.int64Value(&sp.Join)
					case jsonKeyIs(key, "group"):
						return d.stringValue(&sp.Group)
					}
					return d.skipValue(4)
				})
			})
		}
		return d.skipValue(2)
	})
}

// admission decodes the books of an older tail into *p as json.Unmarshal
// does into a pointer: null sets it to nil, and an object decodes into
// what it points at, allocated if nil.
func (d *tailDecoder) admission(p **admissionState) error {
	if d.i < len(d.b) && d.b[d.i] == 'n' {
		*p = nil
		return d.null()
	}
	if *p == nil {
		*p = new(admissionState)
	}
	a := *p
	return d.object(func(key []byte) error {
		switch {
		case jsonKeyIs(key, "names"):
			return d.strings(&a.Names)
		case jsonKeyIs(key, "requested"):
			return decodeArray(d, &a.Requested, 0, func(tw *taskWeight) error {
				return d.object(func(key []byte) error {
					switch {
					case jsonKeyIs(key, "task"):
						return d.stringValue(&tw.Task)
					case jsonKeyIs(key, "weight"):
						return d.ratValue(&tw.Weight)
					}
					return d.skipValue(4)
				})
			})
		case jsonKeyIs(key, "pending_joins"):
			return d.strings(&a.Pending)
		case jsonKeyIs(key, "leaving"):
			return d.strings(&a.Leaving)
		}
		return d.skipValue(2)
	})
}

// commands decodes a command array through the wire codec's object
// walk in its typed form (jsonCursor.command), interning task and group.
func (d *tailDecoder) commands(s *[]core.Command, hint int) error {
	return decodeArray(d, s, hint, func(c *core.Command) error {
		mark := len(d.esc)
		var rc rawCommand
		if err := d.command(&rc, c, 3); err != nil {
			return err
		}
		if rc.task != nil {
			c.Task = d.intern(rc.task)
		}
		if rc.group != nil {
			c.Group = d.intern(rc.group)
		}
		d.esc = d.esc[:mark]
		return nil
	})
}

func (d *tailDecoder) strings(s *[]string) error {
	return decodeArray(d, s, 0, d.stringValue)
}

// stringValue decodes a string, or null, which leaves *p unchanged.
func (d *tailDecoder) stringValue(p *string) error {
	mark := len(d.esc)
	v, err := d.str()
	if v != nil {
		*p = d.intern(v)
		d.esc = d.esc[:mark]
	}
	return err
}

// ratValue decodes a frac.Rat's quoted text, as its UnmarshalText does.
func (d *tailDecoder) ratValue(p *frac.Rat) error {
	v, err := d.str()
	if err != nil || v == nil {
		return err
	}
	*p, err = parseRatBytes(v)
	return err
}

func (d *tailDecoder) intValue(p *int) error {
	n := int64(*p)
	if err := d.int64Value(&n); err != nil {
		return err
	}
	if int64(int(n)) != n {
		return jsonErrf("number %d does not fit int", n)
	}
	*p = int(n)
	return nil
}

// uint64Value decodes a JSON integer that fits uint64, with no sign, as
// json.Unmarshal does into a uint64 field.
func (d *tailDecoder) uint64Value(p *uint64) error {
	if d.i < len(d.b) && d.b[d.i] == 'n' {
		return d.null()
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return err
	}
	*p = n
	return nil
}

func (d *tailDecoder) boolValue(p *bool) error {
	switch {
	case d.lit("true"):
		*p = true
	case d.lit("false"):
		*p = false
	case d.lit("null"):
	default:
		return jsonErrf("invalid value where a bool belongs")
	}
	return nil
}
