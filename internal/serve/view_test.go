package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frac"
)

// serveHTTP runs one request through h in-process and returns the
// status code and body.
func serveHTTP(h http.Handler, method, url, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// readShard is a plain status read of shard 0 through h.
func readShard(t *testing.T, h http.Handler) ShardStatus {
	t.Helper()
	code, body := serveHTTP(h, http.MethodGet, "/v1/shards/0", "")
	if code != http.StatusOK {
		t.Fatalf("status read: %d: %s", code, body)
	}
	var st ShardStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status read: %v: %s", err, body)
	}
	return st
}

// TestStatusReadIsOneSnapshot races one writer and one advancer against
// two readers for two seconds. A plain read copies the shard's view, so
// each one must show a single state between two records: the counters
// agree with the batch length, and the books' total with the headroom.
func TestStatusReadIsOneSnapshot(t *testing.T) {
	const tasks, m = 8, 2
	srv, err := New(Options{Shards: 1, Config: ShardConfig{M: m}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	h := srv.Handler()

	post := func(path, body string) {
		if code, resp := serveHTTP(h, http.MethodPost, path, body); code != http.StatusOK {
			t.Errorf("POST %s: %d: %s", path, code, resp)
		}
	}
	batch := func(op string, weight func(i int) string) string {
		var b strings.Builder
		b.WriteByte('[')
		for i := 0; i < tasks; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"op":"%s","task":"t%d","weight":"%s"}`, op, i, weight(i))
		}
		b.WriteByte(']')
		return b.String()
	}
	post("/v1/shards/0/commands", batch("join", func(int) string { return "1/16" }))
	post("/v1/shards/0/advance", `{"slots":1}`)

	var (
		stop  atomic.Bool
		reads atomic.Int64
		wg    sync.WaitGroup
	)
	wg.Add(4)
	go func() { // writer
		defer wg.Done()
		for n := 0; !stop.Load(); n++ {
			post("/v1/shards/0/commands", batch("reweight", func(i int) string { return fmt.Sprintf("%d/16", 1+(n+i)%2) }))
		}
	}()
	go func() { // advancer
		defer wg.Done()
		for !stop.Load() {
			post("/v1/shards/0/advance", `{"slots":1}`)
		}
	}()
	for r := 0; r < 2; r++ {
		go func() { // reader
			defer wg.Done()
			for !stop.Load() {
				code, body := serveHTTP(h, http.MethodGet, "/v1/shards/0", "")
				var st ShardStatus
				if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
					t.Errorf("status read: %d: %s", code, body)
					return
				}
				reads.Add(1)
				if st.Accepted != st.Applied+int64(st.PendingBatch) {
					t.Errorf("torn read: accepted %d, applied %d, pending_batch %d",
						st.Accepted, st.Applied, st.PendingBatch)
					return
				}
				if got := frac.MustParse(st.RequestedWt).Add(frac.MustParse(st.Headroom)); !got.Eq(frac.FromInt(m)) {
					t.Errorf("requested_weight %s + headroom %s = %s, want %d", st.RequestedWt, st.Headroom, got, m)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Second)
	stop.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no status read completed")
	}
	t.Logf("%d status reads", reads.Load())
	if st := readShard(t, h); st.FailedApplies != 0 || st.Advances < 2 {
		t.Fatalf("after the race: %d failed applies, %d advances", st.FailedApplies, st.Advances)
	}
}

// TestStatusReadSeesPrecedingReply: the loop publishes before it
// replies, so a read sent after a write's reply shows the write's weight
// in the books and its command in the batch, and a read sent after an
// advance's reply shows the new clock and the applied command.
func TestStatusReadSeesPrecedingReply(t *testing.T) {
	srv, err := New(Options{Shards: 1, Config: ShardConfig{M: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	h := srv.Handler()
	for i := 0; i < 200; i++ {
		w := frac.New(int64(1+i%4), 8)
		op := "reweight"
		if i == 0 {
			op = "join"
		}
		code, body := serveHTTP(h, http.MethodPost, "/v1/shards/0/commands",
			fmt.Sprintf(`{"op":"%s","task":"A","weight":"%s"}`, op, w))
		if code != http.StatusOK {
			t.Fatalf("%s %d: %d: %s", op, i, code, body)
		}
		st := readShard(t, h)
		if st.RequestedWt != w.String() || st.Headroom != frac.One.Sub(w).String() ||
			st.PendingBatch != 1 || st.Accepted != int64(i+1) {
			t.Fatalf("read after %s %d to %s: requested %s, headroom %s, pending_batch %d, accepted %d",
				op, i, w, st.RequestedWt, st.Headroom, st.PendingBatch, st.Accepted)
		}
		if code, body := serveHTTP(h, http.MethodPost, "/v1/shards/0/advance", `{"slots":1}`); code != http.StatusOK {
			t.Fatalf("advance %d: %d: %s", i, code, body)
		}
		st = readShard(t, h)
		if st.Now != int64(i+1) || st.Applied != int64(i+1) || st.PendingBatch != 0 || st.ActiveTasks != 1 {
			t.Fatalf("read after advance %d: now %d, applied %d, pending_batch %d, active %d",
				i, st.Now, st.Applied, st.PendingBatch, st.ActiveTasks)
		}
	}
}

// TestStatusReadWithStalledLoop: a plain read never enters the mailbox,
// so with the loop not started and its mailbox full it still answers
// 200 with the state the shard published, while a read with per-task
// rows, which needs the loop, is refused with 429.
func TestStatusReadWithStalledLoop(t *testing.T) {
	srv, err := New(Options{Shards: 1, Config: ShardConfig{M: 1}, MailboxCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	sh := srv.shardAt(0)
	admitOne(sh, core.OpJoin, "A", frac.New(1, 4))
	sh.advance(2)
	admitOne(sh, core.OpJoin, "B", frac.New(1, 8))
	sh.publish(nil)
	for i := 0; i < 2; i++ {
		p := sh.pool.newPending()
		p.kind = pendQuery
		if !sh.submit(p) {
			t.Fatalf("fill submit %d failed", i)
		}
	}
	h := srv.Handler()
	st := readShard(t, h)
	if st.Now != 2 || st.Applied != 1 || st.ActiveTasks != 1 || st.PendingBatch != 1 ||
		st.RequestedWt != "3/8" || st.Headroom != "5/8" || st.Queries != 1 {
		t.Fatalf("read with a stalled loop: %+v", st)
	}
	if code, body := serveHTTP(h, http.MethodGet, "/v1/shards/0?tasks=1", ""); code != http.StatusTooManyRequests {
		t.Fatalf("read with tasks and a full mailbox: %d: %s", code, body)
	}
}
