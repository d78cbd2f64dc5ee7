package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frac"
	"repro/internal/serve"
)

// TestReplicaRejectsTamperedBooks: a tail whose book entry was altered
// in transit replays to the right engine digest but fails the books
// digest, which is a hard error (reset and resync from 0), not a gap.
func TestReplicaRejectsTamperedBooks(t *testing.T) {
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
	bad.Admission.Requested[0].Weight = frac.New(1, 8)
	err = rep.Apply(bad)
	if err == nil {
		t.Fatal("replica accepted a tampered book entry")
	}
	if _, gap := wantIndex(err); gap {
		t.Fatalf("tampered books reported as a gap: %v", err)
	}
}

// tamperOnce is a node transport that, once armed, halves the first
// requested weight of the next replication push and records the
// follower's answer to it.
type tamperOnce struct {
	armed atomic.Bool
	code  atomic.Int32
	want  atomic.Int32
}

func (tp *tamperOnce) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(r.URL.Path, "/repl") || !tp.armed.CompareAndSwap(true, false) {
		return http.DefaultTransport.RoundTrip(r)
	}
	var tl serve.Tail
	if err := json.NewDecoder(r.Body).Decode(&tl); err != nil {
		return nil, err
	}
	w := &tl.Admission.Requested[0].Weight
	*w = w.Div(frac.FromInt(2))
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

// TestTamperedPushResyncs: a push whose books were altered in transit
// draws 409 want 0, the primary's retry of the same push resyncs the
// follower from a complete tail, the write is acked, and promoting the
// follower installs the primary's books, not the tampered ones.
func TestTamperedPushResyncs(t *testing.T) {
	const shards = 2
	n1 := newTestNode(t, "n1", shards)
	defer n1.close(t)
	n2 := newTestNode(t, "n2", shards)
	defer n2.close(t)
	tamper := &tamperOnce{}
	n1.node.client.Transport = tamper
	n2.node.client.Transport = tamper
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

	tamper.armed.Store(true)
	if code, b := postJSON(t, c, commands, `{"op":"join","task":"b","weight":"1/4"}`); code != http.StatusOK {
		t.Fatalf("write over a tampered push answered %d %s, want 200 after the resync", code, b)
	}
	if tamper.armed.Load() {
		t.Fatal("the write made no push to tamper")
	}
	if code, want := tamper.code.Load(), tamper.want.Load(); code != http.StatusConflict || want != 0 {
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
	if got.Digest != want.Digest || !reflect.DeepEqual(got.Admission, want.Admission) || got.BooksDigest != want.BooksDigest {
		t.Fatalf("promoted follower holds (engine %016x, books %+v), primary (engine %016x, books %+v)",
			got.Digest, got.Admission, want.Digest, want.Admission)
	}
}
