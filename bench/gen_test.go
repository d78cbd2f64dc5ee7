package bench

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// shardStreams renders each shard's command stream (write bodies and
// advances, in order) from a connection's requests.
func shardStreams(t *testing.T, items []item) map[int][]byte {
	t.Helper()
	out := make(map[int][]byte)
	for _, it := range items {
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(it.req)))
		if err != nil {
			t.Fatalf("request does not parse: %v\n%s", err, it.req)
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			t.Fatal(err)
		}
		if it.kind != kindRead {
			out[it.shard] = append(append(append(out[it.shard], req.URL.Path...), body...), '\n')
		}
	}
	return out
}

// TestStreamsIgnorePacing: the same seed yields byte-identical per-shard
// command streams whatever the rate, the window sizes and the tracing
// headers; another seed yields another stream.
func TestStreamsIgnorePacing(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for c := 0; c < Conns; c++ {
				sa0, _ := newStreams(w, 42, false)
				a := sa0[c].paced(600, time.Millisecond)
				sb0, _ := newStreams(w, 42, true)
				b := append(sb0[c].paced(100, 37*time.Microsecond), sb0[c].paced(500, 5*time.Millisecond)...)
				sa, sb := shardStreams(t, a), shardStreams(t, b)
				for s, want := range sa {
					if !bytes.Equal(sb[s], want) {
						t.Fatalf("conn %d shard %d: stream depends on pacing", c, s)
					}
				}
				so, _ := newStreams(w, 43, false)
				other := shardStreams(t, so[c].paced(600, time.Millisecond))
				for s, want := range sa {
					if bytes.Equal(other[s], want) {
						t.Fatalf("conn %d shard %d: seeds 42 and 43 give the same stream", c, s)
					}
				}
			}
		})
	}
}

// TestStreamsAreAdmissionClean replays every workload's streams through
// an in-process serve.Server: every command is queued (no property-(W)
// rejection, no 404, no 409), nothing is refused with 429, and after a
// drain no apply failed and nothing is left deferred.
func TestStreamsAreAdmissionClean(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			srv, err := serve.New(serve.Options{Shards: w.Shards, Config: shardConfig(w)})
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			defer srv.Stop()
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()

			streams, bodies := newStreams(w, 9, false)
			if err := populate(hs.URL, bodies); err != nil {
				t.Fatal(err)
			}
			// Enough requests that churn runs past its linger window.
			n := 4000
			if w.Cluster {
				n = 600
			}
			items := [Conns][]item{}
			for c, cs := range streams {
				items[c] = cs.take(n)
			}
			// The connections' streams interleave in lockstep.
			for i := 0; i < len(items[0]) || i < len(items[1]); i++ {
				for c := range items {
					if i >= len(items[c]) {
						continue
					}
					it := &items[c][i]
					req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(it.req)))
					if err != nil {
						t.Fatal(err)
					}
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, req)
					if err := check(it, response{status: rec.Code, body: rec.Body.Bytes()}); err != nil {
						t.Fatalf("request %d on conn %d: %v", i, c, err)
					}
				}
			}
			if err := drain(hs.URL, w.Shards); err != nil {
				t.Fatal(err)
			}
			if _, err := checkShards(hs.URL, w.Shards); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRequestsParse checks the hand-encoded requests against net/http's
// parser, including the tracing header.
func TestRequestsParse(t *testing.T) {
	for _, kind := range []reqKind{kindWrite, kindAdvance, kindRead} {
		raw := encodeRequest(kind, 3, []byte(`{"slots":1}`), 77)
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := headerID(req, reqHeader); got != 77 {
			t.Errorf("%s: %s = %d, want 77", kind, reqHeader, got)
		}
		if requestKind(req) != kind.String() {
			t.Errorf("%s: classified as %q", kind, requestKind(req))
		}
		if req.URL.Path[:len("/v1/shards/3")] != "/v1/shards/3" {
			t.Errorf("%s: path %s", kind, req.URL.Path)
		}
	}
}
