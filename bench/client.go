package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// conn is one persistent HTTP/1.1 load connection. Requests are written
// pre-encoded and pipelined; responses come back in order (net/http
// serves a connection's requests one after another), so one goroutine
// may write while another reads.
type conn struct {
	c    net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{
		c:  c,
		bw: bufio.NewWriterSize(c, 64<<10),
		br: bufio.NewReaderSize(c, 64<<10),
	}, nil
}

func (c *conn) close() { _ = c.c.Close() } // load is over; nothing to report

// response is one parsed reply; body is valid until the next read.
type response struct {
	status int
	body   []byte
}

var errMalformed = errors.New("malformed HTTP response")

// read parses the next response: status line, headers, and a body
// framed by Content-Length or chunked encoding.
func (c *conn) read() (response, error) {
	line, err := c.line()
	if err != nil {
		return response{}, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return response{}, fmt.Errorf("%w: status line %q", errMalformed, line)
	}
	status, ok := atoi(line[9:12])
	if !ok {
		return response{}, fmt.Errorf("%w: status line %q", errMalformed, line)
	}
	length, chunked := -1, false
	for {
		h, err := c.line()
		if err != nil {
			return response{}, err
		}
		if len(h) == 0 {
			break
		}
		name, val, found := bytes.Cut(h, []byte(":"))
		if !found {
			continue
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, ok := atoi(val)
			if !ok {
				return response{}, fmt.Errorf("%w: content-length %q", errMalformed, val)
			}
			length = n
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			h, err := c.line()
			if err != nil {
				return response{}, err
			}
			n, ok := htoi(h)
			if !ok {
				return response{}, fmt.Errorf("%w: chunk size %q", errMalformed, h)
			}
			if n == 0 {
				if _, err := c.line(); err != nil {
					return response{}, err
				}
				break
			}
			if err := c.readN(n); err != nil {
				return response{}, err
			}
			if _, err := c.line(); err != nil {
				return response{}, err
			}
		}
	case length >= 0:
		if err := c.readN(length); err != nil {
			return response{}, err
		}
	default:
		return response{}, fmt.Errorf("%w: no body framing", errMalformed)
	}
	return response{status: status, body: c.body}, nil
}

func (c *conn) readN(n int) error {
	start := len(c.body)
	if cap(c.body)-start < n {
		nb := make([]byte, start, start+n)
		copy(nb, c.body)
		c.body = nb
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

// line returns one CRLF-terminated line without the terminator; valid
// until the next read from br.
func (c *conn) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

func atoi(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

func htoi(b []byte) (int, bool) {
	if i := bytes.IndexByte(b, ';'); i >= 0 {
		b = b[:i]
	}
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		switch {
		case ch >= '0' && ch <= '9':
			n = n*16 + int(ch-'0')
		case ch >= 'a' && ch <= 'f':
			n = n*16 + int(ch-'a'+10)
		case ch >= 'A' && ch <= 'F':
			n = n*16 + int(ch-'A'+10)
		default:
			return 0, false
		}
	}
	return n, true
}

var queuedMarker = []byte(`"status":"queued"`)

// check validates one response against its request: 200, and for
// writes every command queued. Task names are generated alphanumeric, so
// the marker cannot appear inside a rejection reason.
func check(it *item, r response) error {
	if r.status != 200 {
		return fmt.Errorf("%s shard %d: HTTP %d: %.200s", it.kind, it.shard, r.status, r.body)
	}
	if it.kind == kindWrite {
		if q := bytes.Count(r.body, queuedMarker); q != it.n {
			return fmt.Errorf("cmd shard %d: %d of %d commands queued: %.200s", it.shard, q, it.n, r.body)
		}
	}
	return nil
}

// String names the kind as span names and requestKind do.
func (k reqKind) String() string {
	switch k {
	case kindWrite:
		return "cmd"
	case kindAdvance:
		return "advance"
	case kindRead:
		return "read"
	}
	return fmt.Sprintf("reqKind(%d)", uint8(k))
}
