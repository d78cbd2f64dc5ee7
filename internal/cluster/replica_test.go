package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frac"
	"repro/internal/serve"
)

// tamperings alter a tail in transit. All apply to a push cut between
// slot boundaries, which carries a staged join but no command: one
// alters that join's weight, which the books digest covers, one the
// engine digest, which the follower checks against the digest its
// untouched engine memoized, and one the format version.
var tamperings = []struct {
	name   string
	tamper func(*serve.Tail)
}{
	{"batch", func(tl *serve.Tail) {
		w := &tl.Batch[len(tl.Batch)-1].Weight
		*w = w.Div(frac.FromInt(2))
	}},
	{"engine-digest", func(tl *serve.Tail) { tl.Digest ^= 1 }},
	{"version", func(tl *serve.Tail) { tl.Version = 1 }},
}

// TestReplicaRejectsTamperedBooks: a tail whose staged batch, engine
// digest or version was altered in transit fails the books digest, the
// engine digest or the version check, which is a hard error (reset and
// resync from 0), not a gap.
func TestReplicaRejectsTamperedBooks(t *testing.T) {
	for _, tc := range tamperings {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := serve.New(serve.Options{Shards: 1, Config: serve.ShardConfig{M: 2}})
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			defer srv.Stop()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			c := testClient()
			mustPost(t, c, ts.URL+"/v1/shards/0/commands", `{"op":"join","task":"a","weight":"1/4"}`)
			mustPost(t, c, ts.URL+"/v1/shards/0/advance", `{"slots":1}`)
			full, err := srv.ShardTail(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			rep := NewReplica(0)
			if err := rep.Apply(full); err != nil {
				t.Fatal(err)
			}

			mustPost(t, c, ts.URL+"/v1/shards/0/commands", `{"op":"join","task":"b","weight":"1/4"}`)
			bad, err := srv.ShardTail(0, full.Total)
			if err != nil {
				t.Fatal(err)
			}
			if len(bad.Commands) != 0 {
				t.Fatalf("tail between boundaries carries %d commands, want none", len(bad.Commands))
			}
			tc.tamper(bad)
			err = rep.Apply(bad)
			if err == nil {
				t.Fatal("replica accepted a tampered tail")
			}
			if _, gap := wantIndex(err); gap {
				t.Fatalf("tampered tail reported as a gap: %v", err)
			}
		})
	}
}

// tamperOnce is a node transport that, once armed, applies tamper to
// the next replication push and records the follower's answer to it.
type tamperOnce struct {
	tamper func(*serve.Tail)
	armed  atomic.Bool
	code   atomic.Int32
	want   atomic.Int32
}

func (tp *tamperOnce) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(r.URL.Path, "/repl") || !tp.armed.CompareAndSwap(true, false) {
		return http.DefaultTransport.RoundTrip(r)
	}
	var tl serve.Tail
	if err := json.NewDecoder(r.Body).Decode(&tl); err != nil {
		return nil, err
	}
	tp.tamper(&tl)
	body, err := json.Marshal(&tl)
	if err != nil {
		return nil, err
	}
	r2 := r.Clone(r.Context())
	r2.Body, r2.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	resp, err := http.DefaultTransport.RoundTrip(r2)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var ack replAck
	_ = json.Unmarshal(b, &ack) // a non-JSON answer leaves want at 0 and fails on code
	tp.code.Store(int32(resp.StatusCode))
	tp.want.Store(int32(ack.Want))
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return resp, nil
}

// TestTamperedPushResyncs: a push altered in transit draws 409 want 0,
// the primary's retry of the same push resyncs the follower from a
// complete tail, the write is acked, and promoting the follower
// installs the primary's engine, batch and books, not the tampered
// ones.
func TestTamperedPushResyncs(t *testing.T) {
	for _, tc := range tamperings {
		t.Run(tc.name, func(t *testing.T) { tamperedPushResyncs(t, tc.tamper) })
	}
}

func tamperedPushResyncs(t *testing.T, tamper func(*serve.Tail)) {
	const shards = 2
	n1 := newTestNode(t, "n1", shards)
	defer n1.close(t)
	n2 := newTestNode(t, "n2", shards)
	defer n2.close(t)
	tp := &tamperOnce{tamper: tamper}
	n1.node.client.Transport = tp
	n2.node.client.Transport = tp
	coord, err := NewCoordinator(CoordinatorOptions{
		Shards: shards, Replicas: 1, MinNodes: 2,
		Client: &http.Client{Timeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	for _, tn := range []*testNode{n1, n2} {
		if err := tn.node.Register(cts.URL); err != nil {
			t.Fatal(err)
		}
	}
	primary, follower, shard := n1, n2, 0
	if coord.Table().Shards[shard].Primary != n1.id {
		primary, follower = n2, n1
	}

	c := testClient()
	commands := fmt.Sprintf("%s/v1/shards/%d/commands", primary.ts.URL, shard)
	mustPost(t, c, commands, `{"op":"join","task":"a","weight":"1/4"}`)
	mustPost(t, c, fmt.Sprintf("%s/v1/shards/%d/advance", primary.ts.URL, shard), `{"slots":1}`)

	tp.armed.Store(true)
	if code, b := postJSON(t, c, commands, `{"op":"join","task":"b","weight":"1/4"}`); code != http.StatusOK {
		t.Fatalf("write over a tampered push answered %d %s, want 200 after the resync", code, b)
	}
	if tp.armed.Load() {
		t.Fatal("the write made no push to tamper")
	}
	if code, want := tp.code.Load(), tp.want.Load(); code != http.StatusConflict || want != 0 {
		t.Fatalf("follower answered the tampered push %d want %d, want 409 want 0", code, want)
	}

	mustPost(t, c, fmt.Sprintf("%s/v1/cluster/shards/%d/promote", follower.ts.URL, shard), ``)
	want, err := primary.srv.ShardTail(shard, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.srv.ShardTail(shard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != want.Digest || got.BooksDigest != want.BooksDigest {
		t.Fatalf("promoted follower holds (engine %016x, batch %016x), primary (engine %016x, batch %016x)",
			got.Digest, got.BooksDigest, want.Digest, want.BooksDigest)
	}
	if got, want := shardBooks(t, follower.srv, shard), shardBooks(t, primary.srv, shard); got != want {
		t.Fatalf("promoted follower books %+v, primary %+v", got, want)
	}
}

// books is what a shard's status shows of its admission books.
type books struct {
	requested, headroom string
	staged, heldJoins   int
}

// shardBooks reads shard's books from srv's own status, with no
// cluster routing in between.
func shardBooks(t *testing.T, srv *serve.Server, shard int) books {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/shards/%d", shard), nil))
	var st serve.ShardStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("shard %d status %d %q: %v", shard, rec.Code, rec.Body.Bytes(), err)
	}
	return books{st.RequestedWt, st.Headroom, st.PendingBatch, st.DeferredJoins}
}

// promotedBooks installs snap on a fresh server, as a promotion does,
// and reads the installed shard's books.
func promotedBooks(t *testing.T, snap *serve.Snapshot) books {
	t.Helper()
	srv, err := serve.New(serve.Options{Shards: snap.Shard + 1, Config: snap.Config})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	if err := srv.InstallShard(snap); err != nil {
		t.Fatal(err)
	}
	return shardBooks(t, srv, snap.Shard)
}

// zeroBody yields n zero bytes and counts how many were read.
type zeroBody struct{ n, read int64 }

func (z *zeroBody) Read(p []byte) (int, error) {
	if z.read >= z.n {
		return 0, io.EOF
	}
	k := min(int64(len(p)), z.n-z.read)
	clear(p[:k])
	z.read += k
	return int(k), nil
}

// TestReplBodyOverLimitIs413: a push body one byte over the follower's
// limit is answered 413 too_large, as an oversized client body is, and
// a body whose Content-Length says so is refused unread.
func TestReplBodyOverLimitIs413(t *testing.T) {
	tn := newTestNode(t, "n1", 1)
	defer tn.close(t)
	body := &zeroBody{n: maxReplBody + 1}
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster/shards/0/repl", body)
	req.ContentLength = body.n
	rec := httptest.NewRecorder()
	tn.node.Handler().ServeHTTP(rec, req)
	var e serve.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || e.Error != "too_large" {
		t.Fatalf("push of %d bytes answered %d %+v, want 413 too_large", body.n, rec.Code, e)
	}
	if body.read != 0 {
		t.Fatalf("the follower read %d bytes of a body its Content-Length put over the limit", body.read)
	}
}

// TestReplAckCodec: the hand-written ack is the bytes json.Encoder
// wrote, and parses back; anything else is refused.
func TestReplAckCodec(t *testing.T) {
	for _, a := range []replAck{{}, {Acked: 12, Now: 40}, {Want: -1}, {Acked: 1 << 40, Now: -3, Want: 7}} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(a); err != nil {
			t.Fatal(err)
		}
		got := a.appendJSON(nil)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("ack %+v: appended %q, json.Encoder %q", a, got, want.Bytes())
		}
		if back, err := parseReplAck(got); err != nil || back != a {
			t.Fatalf("ack %+v parsed back as %+v, %v", a, back, err)
		}
	}
	for _, bad := range []string{``, `{}`, `{"acked":1}x`, `{"acked":1,"x":2}`, `{"acked":"1"}`, `[1]`} {
		if a, err := parseReplAck([]byte(bad)); err == nil {
			t.Errorf("ack %q parsed as %+v", bad, a)
		}
	}
}
