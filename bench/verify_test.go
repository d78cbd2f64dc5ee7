package bench

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/frac"
	"repro/internal/serve"
)

// loadedServer starts an in-process server for w, joins the population
// and applies a few hundred of the workload's requests, drained.
func loadedServer(t *testing.T, w *Workload) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.New(serve.Options{Shards: w.Shards, Config: shardConfig(w)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	streams, bodies := newStreams(w, 5, false)
	if err := populate(hs.URL, bodies); err != nil {
		t.Fatal(err)
	}
	cs := streams[0]
	c, err := dial(strings.TrimPrefix(hs.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	items := cs.take(300)
	if res := closedLoop(c, items, time.Now(), 4); res.failed > 0 {
		t.Fatal(res.firstErr)
	}
	if err := drain(hs.URL, w.Shards); err != nil {
		t.Fatal(err)
	}
	return srv, hs.URL
}

// tamperLog serves srv but rewrites every /log reply with tamper.
func tamperLog(t *testing.T, srv *serve.Server, tamper func(*serve.Tail)) string {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/log") {
			srv.Handler().ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		var tail serve.Tail
		if err := json.Unmarshal(rec.Body.Bytes(), &tail); err != nil {
			t.Error(err)
		}
		tamper(&tail)
		_ = json.NewEncoder(w).Encode(&tail) // the test reads it back
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestTamperedLogFailsTheRun: a log entry or a digest altered in transit
// fails the log check, and a failed check makes the result incorrect,
// which makes pd2bench exit non-zero.
func TestTamperedLogFailsTheRun(t *testing.T) {
	w := &Workload{Name: "tamper", Shards: 1, M: 4, Policy: "oi", Tasks: 16, Batch: 4, AdvanceEvery: 2, ReadEvery: 5}
	srv, clean := loadedServer(t, w)
	if _, err := checkShards(clean, 1); err != nil {
		t.Fatalf("untampered shard fails the checks: %v", err)
	}
	for name, tamper := range map[string]func(*serve.Tail){
		// The last command: an earlier reweight may be superseded by a
		// later one of the same task in the same slot and leave no trace.
		"entry": func(tl *serve.Tail) {
			c := &tl.Commands[len(tl.Commands)-1]
			if c.Weight.Eq(frac.New(1, 64)) {
				c.Weight = frac.New(2, 64)
			} else {
				c.Weight = frac.New(1, 64)
			}
		},
		"digest": func(tl *serve.Tail) { tl.Digest ^= 1 },
	} {
		t.Run(name, func(t *testing.T) {
			_, err := checkShards(tamperLog(t, srv, tamper), 1)
			if err == nil {
				t.Fatal("tampered log passes the checks")
			}
			m := &measurement{}
			m.check(err)
			if endToEnd(w, m).Correct {
				t.Fatal("a failed log check leaves the result correct")
			}
		})
	}
}

// TestRestoreMismatchFailsTheRun: a restart that comes back in another
// state than the one shut down fails the restore check.
func TestRestoreMismatchFailsTheRun(t *testing.T) {
	churn, err := WorkloadByName("churn-restore")
	if err != nil {
		t.Fatal(err)
	}
	w := churn.Toy()
	w.Shards = 2
	h := &memHost{}
	d, err := h.start(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, bodies := newStreams(w, 3, false)
	if err := populate("http://"+d.addr(), bodies); err != nil {
		t.Fatal(err)
	}
	snapDir := t.TempDir()
	if err := fetchSnapshots("http://"+d.addr(), snapDir, w.Shards); err != nil {
		t.Fatal(err)
	}
	// The shards move on after the snapshot was taken.
	if _, err := postJSON("http://"+d.addr()+"/v1/shards/1/advance", advanceBody); err != nil {
		t.Fatal(err)
	}
	final, err := checkShards("http://"+d.addr(), w.Shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.stop(false); err != nil {
		t.Fatal(err)
	}
	rd, err := h.restore(w, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.stop(false)
	post, err := restoredState("http://"+rd.addr(), w.Shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRestored(final.shards[:1], post[:1]); err != nil {
		t.Fatalf("the untouched shard does not restore: %v", err)
	}
	err = checkRestored(final.shards, post)
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("a restore to an older state passes: %v", err)
	}
	m := &measurement{}
	m.check(err)
	if endToEnd(w, m).Correct {
		t.Fatal("a failed restore check leaves the result correct")
	}
}

// TestResultLineHasExactlyTheContractKeys pins the last line's shape.
func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	r := endToEnd(Workloads[0], &measurement{attempted: 3})
	var buf bytes.Buffer
	if err := r.Print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result line keys: %s", lines[len(lines)-1])
	}
}
