package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
)

// Hand-rolled JSON codec for the hot wire path. The serving bottleneck
// is per-command overhead, not scheduling (docs/SERVE.md, "Why the codec
// stays"), and encoding/json's reflection allocates on every request; this codec
// encodes CommandResult/AdvanceResponse and decodes
// CommandRequest/AdvanceRequest with zero steady-state allocations,
// appending into pooled buffers owned by the mailbox record.
//
// The contract is byte-for-byte compatibility with encoding/json, in
// both directions:
//
//   - appendCommandResult(s)/appendAdvanceResponse produce exactly the
//     bytes writeJSON's json.Encoder produced (struct field order,
//     omitempty, HTML-escaping, trailing newline) — pinned by golden
//     differential tests in codec_test.go;
//   - decodeCommands/decodeAdvance accept exactly the inputs
//     json.Unmarshal accepted for the wire structs (case-folded keys,
//     duplicate keys last-wins, null leaving a field unset, skipped
//     unknown fields, \u escapes with surrogate pairs, invalid-UTF-8
//     replacement) — pinned by fuzz agreement tests.
//
// The tail codec (tailcodec.go) builds on the same cursor.
//
// Decoded strings are NOT copied: they alias the request body (or the
// record's escape scratch) and are only valid while the mailbox record
// is live. Names that outlive the request (joins entering the admission
// books, joins' group tags) are interned explicitly at a declared
// allocok boundary.

// maxJSONDepth mirrors encoding/json's nesting limit so the skip path
// of the decoder agrees with json.Unmarshal on pathological inputs.
const maxJSONDepth = 10000

// ---------------------------------------------------------------------
// Encoder.

var jsonHexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping exactly
// as encoding/json does with HTML escaping on (its default): ", \, and
// control bytes escaped (with \b, \f, \n, \r, \t short forms, as
// since Go 1.22), <, >, & as \u00xx, invalid UTF-8 as �, and
// U+2028/U+2029 escaped.
//
//lint:noalloc hot wire encode path; appends into the caller's pooled buffer
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHexDigits[b>>4], jsonHexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendCommandResult appends r as a JSON object, byte-identical to
// json.Marshal's rendering of CommandResult (field order, omitempty).
//
//lint:noalloc hot wire encode path; appends into the caller's pooled buffer
func appendCommandResult(dst []byte, r *CommandResult) []byte {
	dst = append(dst, `{"status":`...)
	dst = appendJSONString(dst, r.Status)
	if r.Slot != 0 {
		dst = append(dst, `,"slot":`...)
		dst = strconv.AppendInt(dst, r.Slot, 10)
	}
	if r.Code != 0 {
		dst = append(dst, `,"code":`...)
		dst = strconv.AppendInt(dst, int64(r.Code), 10)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, r.Error)
	}
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, r.Reason)
	}
	if r.Headroom != "" {
		dst = append(dst, `,"headroom":`...)
		dst = appendJSONString(dst, r.Headroom)
	}
	return append(dst, '}')
}

// appendCommandResults appends rs as a JSON array plus the trailing
// newline json.Encoder emits — the full batch-response body.
//
//lint:noalloc hot wire encode path; appends into the caller's pooled buffer
func appendCommandResults(dst []byte, rs []CommandResult) []byte {
	dst = append(dst, '[')
	for i := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendCommandResult(dst, &rs[i])
	}
	return append(dst, ']', '\n')
}

// appendCommandResultLine is the single-command response body: the
// object plus json.Encoder's trailing newline.
//
//lint:noalloc hot wire encode path; appends into the caller's pooled buffer
func appendCommandResultLine(dst []byte, r *CommandResult) []byte {
	dst = appendCommandResult(dst, r)
	return append(dst, '\n')
}

// appendAdvanceResponse is the advance response body.
//
//lint:noalloc hot wire encode path; appends into the caller's pooled buffer
func appendAdvanceResponse(dst []byte, now int64) []byte {
	dst = append(dst, `{"now":`...)
	dst = strconv.AppendInt(dst, now, 10)
	return append(dst, '}', '\n')
}

// ---------------------------------------------------------------------
// Decoder.

// jsonCursor scans one request body. Strings are returned as subslices
// of the body where possible; strings containing escapes or non-ASCII
// bytes are rewritten into esc, which the owning mailbox record retains
// across requests (growth is amortized).
type jsonCursor struct {
	b   []byte
	i   int
	esc []byte
}

//lint:allocok error construction on the malformed-request path only
func jsonErrf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// errUnexpectedEnd mirrors encoding/json's truncated-input error text.
//
//lint:allocok error construction on the malformed-request path only
func errUnexpectedEnd() error {
	return fmt.Errorf("unexpected end of JSON input")
}

//lint:noalloc hot wire decode path
func (c *jsonCursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// lit consumes the literal s ("true", "false", "null") if present.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) {
		return false
	}
	for j := 0; j < len(s); j++ {
		if c.b[c.i+j] != s[j] {
			return false
		}
	}
	c.i += len(s)
	return true
}

// trailing errors unless only whitespace remains.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) trailing() error {
	c.ws()
	if c.i != len(c.b) {
		return jsonErrf("invalid character %q after top-level value", c.b[c.i])
	}
	return nil
}

// str parses a JSON string (or null, returning nil). The fast path —
// printable ASCII, no escapes — returns a subslice of the body; anything
// else is rewritten into the escape scratch with encoding/json's exact
// semantics (\u escapes with surrogate-pair handling, invalid UTF-8 and
// unpaired surrogates replaced by U+FFFD).
//
//lint:noalloc hot wire decode path; rewrites land in the record's retained scratch
func (c *jsonCursor) str() ([]byte, error) {
	if c.i >= len(c.b) {
		return nil, errUnexpectedEnd()
	}
	if c.b[c.i] == 'n' {
		if c.lit("null") {
			return nil, nil
		}
		return nil, jsonErrf("invalid character 'n' looking for string")
	}
	if c.b[c.i] != '"' {
		return nil, jsonErrf("invalid character %q looking for string", c.b[c.i])
	}
	c.i++
	start := c.i
	for c.i < len(c.b) {
		b := c.b[c.i]
		if b == '"' {
			out := c.b[start:c.i]
			c.i++
			return out, nil
		}
		if b == '\\' || b >= utf8.RuneSelf {
			return c.strSlow(start)
		}
		if b < 0x20 {
			return nil, jsonErrf("invalid character %q in string literal", b)
		}
		c.i++
	}
	return nil, errUnexpectedEnd()
}

// strSlow rewrites a string with escapes or non-ASCII bytes into the
// scratch, resuming from the opening quote's successor `start`.
//
//lint:noalloc hot wire decode path; rewrites land in the record's retained scratch
func (c *jsonCursor) strSlow(start int) ([]byte, error) {
	from := len(c.esc)
	c.esc = append(c.esc, c.b[start:c.i]...)
	for c.i < len(c.b) {
		switch b := c.b[c.i]; {
		case b == '"':
			c.i++
			return c.esc[from:], nil
		case b == '\\':
			c.i++
			if c.i >= len(c.b) {
				return nil, errUnexpectedEnd()
			}
			switch e := c.b[c.i]; e {
			case '"', '\\', '/':
				c.esc = append(c.esc, e)
				c.i++
			case 'b':
				c.esc = append(c.esc, '\b')
				c.i++
			case 'f':
				c.esc = append(c.esc, '\f')
				c.i++
			case 'n':
				c.esc = append(c.esc, '\n')
				c.i++
			case 'r':
				c.esc = append(c.esc, '\r')
				c.i++
			case 't':
				c.esc = append(c.esc, '\t')
				c.i++
			case 'u':
				r := c.getu4(c.i - 1)
				if r < 0 {
					return nil, jsonErrf("invalid \\u escape in string literal")
				}
				c.i += 5
				if utf16.IsSurrogate(r) {
					r1 := c.getu4(c.i)
					if dec := utf16.DecodeRune(r, r1); dec != utf8.RuneError {
						c.i += 6
						c.esc = utf8.AppendRune(c.esc, dec)
						break
					}
					r = utf8.RuneError
				}
				c.esc = utf8.AppendRune(c.esc, r)
			default:
				return nil, jsonErrf("invalid escape character %q in string literal", e)
			}
		case b < 0x20:
			return nil, jsonErrf("invalid character %q in string literal", b)
		case b < utf8.RuneSelf:
			c.esc = append(c.esc, b)
			c.i++
		default:
			r, size := utf8.DecodeRune(c.b[c.i:])
			c.esc = utf8.AppendRune(c.esc, r)
			c.i += size
		}
	}
	return nil, errUnexpectedEnd()
}

// getu4 decodes the \uXXXX escape starting at offset (the backslash),
// returning -1 if it is not one — encoding/json's getu4.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) getu4(at int) rune {
	if at+6 > len(c.b) || c.b[at] != '\\' || c.b[at+1] != 'u' {
		return -1
	}
	var r rune
	for _, d := range c.b[at+2 : at+6] {
		switch {
		case d >= '0' && d <= '9':
			d -= '0'
		case d >= 'a' && d <= 'f':
			d -= 'a' - 10
		case d >= 'A' && d <= 'F':
			d -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(d)
	}
	return r
}

// number scans one JSON number token and returns it uninterpreted.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) number() ([]byte, error) {
	start := c.i
	if c.i < len(c.b) && c.b[c.i] == '-' {
		c.i++
	}
	switch {
	case c.i < len(c.b) && c.b[c.i] == '0':
		c.i++
	case c.i < len(c.b) && c.b[c.i] >= '1' && c.b[c.i] <= '9':
		for c.i < len(c.b) && c.b[c.i] >= '0' && c.b[c.i] <= '9' {
			c.i++
		}
	default:
		return nil, jsonErrf("invalid number literal")
	}
	if c.i < len(c.b) && c.b[c.i] == '.' {
		c.i++
		if c.i >= len(c.b) || c.b[c.i] < '0' || c.b[c.i] > '9' {
			return nil, jsonErrf("invalid number literal: missing fraction digits")
		}
		for c.i < len(c.b) && c.b[c.i] >= '0' && c.b[c.i] <= '9' {
			c.i++
		}
	}
	if c.i < len(c.b) && (c.b[c.i] == 'e' || c.b[c.i] == 'E') {
		c.i++
		if c.i < len(c.b) && (c.b[c.i] == '+' || c.b[c.i] == '-') {
			c.i++
		}
		if c.i >= len(c.b) || c.b[c.i] < '0' || c.b[c.i] > '9' {
			return nil, jsonErrf("invalid number literal: missing exponent digits")
		}
		for c.i < len(c.b) && c.b[c.i] >= '0' && c.b[c.i] <= '9' {
			c.i++
		}
	}
	return c.b[start:c.i], nil
}

// member reads one object key and the colon after it, leaving the
// cursor on the member's value. A key must be a string: null is not one.
// A key with escapes or non-ASCII bytes, which str rewrites into the
// scratch, also has its Kelvin signs and long s folded (foldKey), so
// that jsonKeyIs matches keys as json.Unmarshal does.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) member() ([]byte, error) {
	c.ws()
	if c.i < len(c.b) && c.b[c.i] != '"' {
		return nil, jsonErrf("invalid character %q looking for object key", c.b[c.i])
	}
	scratch := len(c.esc)
	key, err := c.str()
	if err != nil {
		return nil, err
	}
	if len(c.esc) != scratch {
		key = foldKey(key)
	}
	c.ws()
	if c.i >= len(c.b) || c.b[c.i] != ':' {
		return nil, jsonErrf("expected ':' after object key")
	}
	c.i++
	c.ws()
	return key, nil
}

// next consumes the ',' or '}' after a member's value and reports
// whether another member follows.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) next() (bool, error) {
	c.ws()
	if c.i >= len(c.b) {
		return false, errUnexpectedEnd()
	}
	switch c.b[c.i] {
	case ',':
		c.i++
		return true, nil
	case '}':
		c.i++
		return false, nil
	}
	return false, jsonErrf("invalid character %q after object value", c.b[c.i])
}

// openObject consumes the '{' of an object (the cursor is on it) and
// reports whether a member follows.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) openObject() bool {
	c.i++
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == '}' {
		c.i++
		return false
	}
	return true
}

// skipValue validates and discards one JSON value of any shape (the
// unknown-field path). depth counts the objects and arrays around the
// value; as in encoding/json, no value may open a 10,001st.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) skipValue(depth int) error {
	c.ws()
	if c.i >= len(c.b) {
		return errUnexpectedEnd()
	}
	switch b := c.b[c.i]; {
	case b == '{' || b == '[':
		if depth >= maxJSONDepth {
			return jsonErrf("exceeded max depth")
		}
		if b == '{' {
			for more := c.openObject(); more; {
				if _, err := c.member(); err != nil {
					return err
				}
				if err := c.skipValue(depth + 1); err != nil {
					return err
				}
				var err error
				if more, err = c.next(); err != nil {
					return err
				}
			}
			return nil
		}
		c.i++
		c.ws()
		if c.i < len(c.b) && c.b[c.i] == ']' {
			c.i++
			return nil
		}
		for {
			if err := c.skipValue(depth + 1); err != nil {
				return err
			}
			c.ws()
			if c.i >= len(c.b) {
				return errUnexpectedEnd()
			}
			switch c.b[c.i] {
			case ',':
				c.i++
			case ']':
				c.i++
				return nil
			default:
				return jsonErrf("invalid character %q after array element", c.b[c.i])
			}
		}
	case b == '"':
		_, err := c.str()
		return err
	case b == 't':
		if !c.lit("true") {
			return jsonErrf("invalid literal")
		}
		return nil
	case b == 'f':
		if !c.lit("false") {
			return jsonErrf("invalid literal")
		}
		return nil
	case b == 'n':
		if !c.lit("null") {
			return jsonErrf("invalid literal")
		}
		return nil
	case b == '-' || (b >= '0' && b <= '9'):
		_, err := c.number()
		return err
	default:
		return jsonErrf("invalid character %q looking for value", b)
	}
}

// int64Value decodes a JSON integer that fits int64 into *p, as
// json.Unmarshal does into an int64 field: null leaves *p unchanged, and
// a fraction, an exponent, an overflow or a non-number is an error.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) int64Value(p *int64) error {
	if c.i < len(c.b) && c.b[c.i] == 'n' {
		if !c.lit("null") {
			return jsonErrf("invalid literal")
		}
		return nil
	}
	tok, err := c.number()
	if err != nil {
		return err
	}
	n, ok := parseInt64(tok)
	if !ok {
		return jsonErrf("number %s does not fit int64", tok)
	}
	*p = n
	return nil
}

// rawCommand is one decoded-but-unvalidated wire command. Slices alias
// the request body or the cursor's scratch; nil means absent or null
// (json.Unmarshal leaves a field unset on null, and the validator treats
// absent as empty).
type rawCommand struct {
	op, task, weight, group []byte
}

// command decodes one command object (or null) into out, mirroring
// json.Unmarshal's struct decoding: case-folded key match, last
// duplicate wins, unknown fields skipped, null leaves a field unset.
// depth counts the objects and arrays around the object's members.
//
// With entry nil it is the wire walk: out takes op, task, weight and
// group as bytes, and "at" and "arg", which CommandRequest lacks, are
// skipped. With entry set it decodes a log or batch entry of a tail,
// member by member through entryMember.
//
//lint:noalloc hot wire decode path
func (c *jsonCursor) command(out *rawCommand, entry *core.Command, depth int) error {
	*out = rawCommand{}
	c.ws()
	if c.i >= len(c.b) {
		return errUnexpectedEnd()
	}
	if c.b[c.i] == 'n' {
		if c.lit("null") {
			return nil
		}
		return jsonErrf("invalid literal looking for command object")
	}
	if c.b[c.i] != '{' {
		return jsonErrf("invalid character %q looking for command object", c.b[c.i])
	}
	for more := c.openObject(); more; {
		key, err := c.member()
		if err != nil {
			return err
		}
		var v []byte
		switch {
		case entry != nil:
			err = c.entryMember(key, out, entry, depth)
		case jsonKeyIs(key, "op"):
			if v, err = c.str(); v != nil {
				out.op = v
			}
		case jsonKeyIs(key, "task"):
			if v, err = c.str(); v != nil {
				out.task = v
			}
		case jsonKeyIs(key, "weight"):
			if v, err = c.str(); v != nil {
				out.weight = v
			}
		case jsonKeyIs(key, "group"):
			if v, err = c.str(); v != nil {
				out.group = v
			}
		default:
			err = c.skipValue(depth)
		}
		if err != nil {
			return jsonErrf("%s: %v", key, err)
		}
		if more, err = c.next(); err != nil {
			return err
		}
	}
	return nil
}

// entryMember decodes one member of a tail's log or batch entry as
// json.Unmarshal decodes it into a core.Command: op, weight, at and arg
// are parsed into entry at each occurrence, so an invalid one fails
// even when a later duplicate is valid, and out takes task and group
// for the caller to intern.
//
//lint:noalloc hot tail decode path
func (c *jsonCursor) entryMember(key []byte, out *rawCommand, entry *core.Command, depth int) error {
	var v []byte
	var err error
	switch {
	case jsonKeyIs(key, "op"):
		if v, err = c.str(); v != nil {
			entry.Op, err = parseOp(v)
		}
	case jsonKeyIs(key, "task"):
		if v, err = c.str(); v != nil {
			out.task = v
		}
	case jsonKeyIs(key, "weight"):
		if v, err = c.str(); v != nil {
			entry.Weight, err = parseRatBytes(v)
		}
	case jsonKeyIs(key, "group"):
		if v, err = c.str(); v != nil {
			out.group = v
		}
	case jsonKeyIs(key, "at"):
		err = c.int64Value(&entry.At)
	case jsonKeyIs(key, "arg"):
		err = c.int64Value(&entry.Arg)
	default:
		err = c.skipValue(depth)
	}
	return err
}

// jsonKeyIs matches a key member returned against a struct field's
// JSON name, given in lowercase ASCII, with json.Unmarshal's case
// folding: ASCII case here, and the two non-ASCII runes that fold to
// ASCII letters in member (foldKey).
//
//lint:noalloc hot wire decode path
func jsonKeyIs(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		b := key[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if b != name[i] {
			return false
		}
	}
	return true
}

// foldKey rewrites, in place, each Kelvin sign (U+212A) in key as 'k'
// and each long s (U+017F) as 's': under the Unicode simple folding
// json.Unmarshal matches keys with, they are the only non-ASCII runes
// that fold to ASCII letters, so "ta\u017fk" names a field "task".
//
//lint:noalloc hot wire decode path
func foldKey(key []byte) []byte {
	n := 0
	for i := 0; i < len(key); {
		r, size := utf8.DecodeRune(key[i:])
		switch r {
		case '\u212a':
			key[n] = 'k'
			n++
		case '\u017f':
			key[n] = 's'
			n++
		default:
			n += copy(key[n:], key[i:i+size])
		}
		i += size
	}
	return key[:n]
}

// ---------------------------------------------------------------------
// Integer and rational parsing over bytes (no intermediate strings).

// parseInt64 mirrors strconv.ParseInt(s, 10, 64): optional sign, one or
// more decimal digits, overflow checked.
//
//lint:noalloc hot wire decode path
func parseInt64(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	switch b[0] {
	case '+':
		b = b[1:]
	case '-':
		neg = true
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const cutoff = uint64(1) << 63
	var n uint64
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		if n > (cutoff-1)/10+1 {
			return 0, false
		}
		n = n*10 + uint64(d-'0')
		if n > cutoff {
			return 0, false
		}
	}
	if neg {
		if n > cutoff {
			return 0, false
		}
		return -int64(n), true
	}
	if n >= cutoff {
		return 0, false
	}
	return int64(n), true
}

// parseRatBytes mirrors frac.Parse over bytes: "a/b" or "a", parts
// trimmed of (unicode) space, zero denominators and values that do not
// fit refused.
//
//lint:noalloc hot wire decode path
func parseRatBytes(b []byte) (frac.Rat, error) {
	b = bytes.TrimSpace(b)
	if i := bytes.IndexByte(b, '/'); i >= 0 {
		num, ok := parseInt64(bytes.TrimSpace(b[:i]))
		if !ok {
			return frac.Rat{}, jsonErrf("frac: parse %q: invalid integer", b)
		}
		den, ok := parseInt64(bytes.TrimSpace(b[i+1:]))
		if !ok {
			return frac.Rat{}, jsonErrf("frac: parse %q: invalid integer", b)
		}
		r, err := frac.Reduce(num, den)
		if err != nil {
			return frac.Rat{}, jsonErrf("frac: parse %q: %v", b, err)
		}
		return r, nil
	}
	n, ok := parseInt64(b)
	if !ok {
		return frac.Rat{}, jsonErrf("frac: parse %q: invalid integer", b)
	}
	return frac.FromInt(n), nil
}

// ---------------------------------------------------------------------
// Command decoding and validation.

// validateRaw resolves a decoded command to an op and exact weight,
// performing exactly parseCommand's stateless checks (same refusal set,
// equivalent messages). On success the returned wireCmd's task aliases
// the request buffer (wireCmd.raw); the admission layer resolves it to
// a canonical interned name. Only a join keeps its group: no other op
// applies one, so the staged command is exactly what the log records.
//
//lint:noalloc hot wire decode path; rejection messages form at the allocok error boundary
func validateRaw(rc *rawCommand) (wireCmd, error) {
	cmd := wireCmd{raw: rc.task}
	switch {
	case bytes.Equal(rc.op, opJoinName):
		cmd.Op = core.OpJoin
	case bytes.Equal(rc.op, opLeaveName):
		cmd.Op = core.OpLeave
	case bytes.Equal(rc.op, opReweightName):
		cmd.Op = core.OpReweight
	default:
		return wireCmd{}, jsonErrf("op %q is not one of join, leave, reweight", rc.op)
	}
	if len(rc.task) == 0 {
		return wireCmd{}, jsonErrf("missing task name")
	}
	if cmd.Op == core.OpLeave {
		return cmd, nil
	}
	if cmd.Op == core.OpJoin && len(rc.group) > 0 {
		cmd.Group = internBytes(rc.group)
	}
	if len(rc.weight) == 0 {
		return wireCmd{}, jsonErrf("op %s needs a weight", rc.op)
	}
	w, perr := parseRatBytes(rc.weight)
	if perr != nil {
		return wireCmd{}, jsonErrf("weight %q: %v", rc.weight, perr)
	}
	// The AIS reweighting rules cover light tasks only; serve admits
	// nothing it could not later reweight.
	if lerr := checkLightWeight(w); lerr != nil {
		return wireCmd{}, jsonErrf("weight %s: %v", w, lerr)
	}
	cmd.Weight = w
	return cmd, nil
}

var (
	opJoinName     = []byte("join")
	opLeaveName    = []byte("leave")
	opReweightName = []byte("reweight")
)

// checkLightWeight keeps model's error construction behind an allocok
// boundary; the accept path performs only comparisons.
//
//lint:allocok weight-rejection errors form here; accepted weights return nil without allocating
func checkLightWeight(w frac.Rat) error {
	return model.CheckLightWeight(w)
}

// parseOp is core.CommandOp's text decoding behind the error boundary:
// a known op name returns without allocating.
//
//lint:allocok the unknown-op error forms here; a known name returns without allocating
func parseOp(name []byte) (core.CommandOp, error) {
	var op core.CommandOp
	err := op.UnmarshalText(name)
	return op, err
}

// internBytes copies decoded bytes into a durable string (joins'
// admission names and group tags outlive the request buffer).
//
//lint:allocok name interning is the one deliberate allocation of the decode path; joins and group tags only
func internBytes(b []byte) string {
	return string(b)
}

//lint:allocok error construction on the malformed-request path only
func commandErrf(i int, err error) error {
	return fmt.Errorf("command %d: %v", i, err)
}

// decodeCommands parses a request body — one command object or an array
// of them — directly into validated wireCmds, appending to dst (pooled)
// and rewriting escaped strings into esc (pooled). It is the fused
// equivalent of json.Unmarshal + parseCommand: any body json.Unmarshal
// would refuse for the wire structs is refused, any command
// parseCommand would refuse is refused, and a malformed batch fails as
// a whole before anything reaches a shard.
//
//lint:noalloc hot wire decode path; growth lands in caller-owned pooled buffers
func decodeCommands(body, esc []byte, dst []wireCmd) (cmds []wireCmd, escOut []byte, batch bool, err error) {
	var c jsonCursor
	c.b = body
	c.esc = esc[:0]
	c.ws()
	var rc rawCommand
	if batch = c.i < len(c.b) && c.b[c.i] == '['; !batch {
		if err := c.command(&rc, nil, 1); err != nil {
			return dst, c.esc, false, err
		}
		if err := c.trailing(); err != nil {
			return dst, c.esc, false, err
		}
		cmd, err := validateRaw(&rc)
		if err != nil {
			return dst, c.esc, false, commandErrf(0, err)
		}
		return append(dst, cmd), c.esc, false, nil
	}
	c.i++
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == ']' {
		c.i++
		if err := c.trailing(); err != nil {
			return dst, c.esc, true, err
		}
		return dst, c.esc, true, nil
	}
	for n := 0; ; n++ {
		if err := c.command(&rc, nil, 2); err != nil {
			return dst, c.esc, true, err
		}
		cmd, verr := validateRaw(&rc)
		if verr != nil {
			// Finish the syntax scan first: json.Unmarshal validates the
			// whole body before decoding, so a syntax error later in the
			// batch must win over this command's validation error.
			for {
				c.ws()
				if c.i >= len(c.b) {
					return dst, c.esc, true, errUnexpectedEnd()
				}
				if c.b[c.i] == ']' {
					c.i++
					break
				}
				if c.b[c.i] != ',' {
					return dst, c.esc, true, jsonErrf("invalid character %q after array element", c.b[c.i])
				}
				c.i++
				if err := c.command(&rc, nil, 2); err != nil {
					return dst, c.esc, true, err
				}
			}
			if err := c.trailing(); err != nil {
				return dst, c.esc, true, err
			}
			return dst, c.esc, true, commandErrf(n, verr)
		}
		dst = append(dst, cmd)
		c.ws()
		if c.i >= len(c.b) {
			return dst, c.esc, true, errUnexpectedEnd()
		}
		switch c.b[c.i] {
		case ',':
			c.i++
		case ']':
			c.i++
			if err := c.trailing(); err != nil {
				return dst, c.esc, true, err
			}
			return dst, c.esc, true, nil
		default:
			return dst, c.esc, true, jsonErrf("invalid character %q after array element", c.b[c.i])
		}
	}
}

// decodeAdvance parses an advance request body: empty means one slot,
// otherwise an object (or null) whose "slots" field must be a JSON
// integer fitting int64 — exactly json.Unmarshal's acceptance for
// AdvanceRequest.
//
//lint:noalloc hot wire decode path
func decodeAdvance(body []byte) (int64, error) {
	if len(body) == 0 {
		return 0, nil
	}
	var c jsonCursor
	c.b = body
	c.ws()
	if c.i >= len(c.b) {
		return 0, errUnexpectedEnd()
	}
	var slots int64
	if c.b[c.i] == 'n' {
		if !c.lit("null") {
			return 0, jsonErrf("invalid literal looking for advance object")
		}
		return slots, c.trailing()
	}
	if c.b[c.i] != '{' {
		return 0, jsonErrf("invalid character %q looking for advance object", c.b[c.i])
	}
	for more := c.openObject(); more; {
		key, err := c.member()
		if err != nil {
			return 0, err
		}
		if jsonKeyIs(key, "slots") {
			err = c.int64Value(&slots) // null leaves it unset, as json.Unmarshal does
		} else {
			err = c.skipValue(1)
		}
		if err != nil {
			return 0, err
		}
		if more, err = c.next(); err != nil {
			return 0, err
		}
	}
	return slots, c.trailing()
}
