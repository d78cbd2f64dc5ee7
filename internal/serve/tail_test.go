package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/stats"
)

// driveSomeLoad joins tasks, reweights them, and advances the clock so
// the shard accumulates a non-trivial applied log plus pending state.
func driveSomeLoad(t *testing.T, ts *httptest.Server, shard int) {
	t.Helper()
	for i := 0; i < 4; i++ {
		post(t, ts, shard, "commands", fmt.Sprintf(`{"op":"join","task":"T%d","weight":"1/8"}`, i))
	}
	for s := 0; s < 3; s++ {
		post(t, ts, shard, "advance", `{"slots":2}`)
		post(t, ts, shard, "commands", fmt.Sprintf(`{"op":"reweight","task":"T%d","weight":"1/4"}`, s))
	}
}

// post sends one body to a shard endpoint and requires a 200.
func post(t *testing.T, ts *httptest.Server, shard int, op, body string) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/shards/%d/%s", ts.URL, shard, op), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d", op, body, resp.StatusCode)
	}
}

// applyAll applies tails to a fresh replica of shard 0, failing the
// test on any error.
func applyAll(t *testing.T, tails ...*Tail) *Replica {
	t.Helper()
	rep := NewReplica(0)
	for _, tl := range tails {
		if err := rep.Apply(tl); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

// TestTailRoundTrip: the /log endpoint's complete tail must replay
// byte-identically (VerifyTail), an incremental tail must apply onto a
// replica of the cut before it, and InstallShard must accept the
// replica's snapshot and serve the same digest and books.
func TestTailRoundTrip(t *testing.T) {
	srv, err := New(Options{Shards: 1, Config: ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fetch := func(from int) *Tail {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/shards/0/log?from=%d", ts.URL, from))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("log from=%d: %d", from, resp.StatusCode)
		}
		var tail Tail
		if err := json.NewDecoder(resp.Body).Decode(&tail); err != nil {
			t.Fatal(err)
		}
		return &tail
	}

	// A task joined before the first cut and untouched after it: only
	// the books the follower folded from that cut still hold it.
	post(t, ts, 0, "commands", `{"op":"join","task":"U","weight":"1/8"}`)
	post(t, ts, 0, "advance", `{"slots":1}`)
	base := fetch(0)
	driveSomeLoad(t, ts, 0)

	full := fetch(0)
	if full.Total == 0 || len(full.Commands) != full.Total {
		t.Fatalf("full tail carries %d of %d commands", len(full.Commands), full.Total)
	}
	digest, err := VerifyTail(full)
	if err != nil {
		t.Fatal(err)
	}
	if digest != full.Digest {
		t.Fatalf("replayed digest %016x != tail digest %016x", digest, full.Digest)
	}

	// Incremental tail applies onto the log and books of the cut it
	// follows.
	delta := fetch(base.Total)
	if delta.From != base.Total {
		t.Fatalf("delta.From = %d, want %d", delta.From, base.Total)
	}
	for _, name := range delta.Admission.Names {
		if name == "U" {
			t.Fatalf("delta from %d carries U, untouched since log index %d", delta.From, base.Total)
		}
	}
	snap := applyAll(t, base, delta).Snapshot()
	if snap.From != 0 || len(snap.Commands) != full.Total {
		t.Fatalf("replica snapshot from %d has %d commands, want from 0 and %d", snap.From, len(snap.Commands), full.Total)
	}

	// A second server installs the snapshot live and serves the digest.
	dst, err := New(Options{Shards: 1, Config: ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dst.Start()
	defer dst.Stop()
	if err := dst.InstallShard(snap); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ShardTail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != full.Digest || got.Now != full.Now {
		t.Fatalf("installed shard at (now=%d, %016x), want (now=%d, %016x)",
			got.Now, got.Digest, full.Now, full.Digest)
	}
	if !reflect.DeepEqual(got.Admission, full.Admission) || got.BooksDigest != full.BooksDigest {
		t.Fatalf("installed books %+v (digest %016x), want %+v (digest %016x)",
			got.Admission, got.BooksDigest, full.Admission, full.BooksDigest)
	}

	// A bad from is a clean 400, not a hang.
	resp, err := http.Get(ts.URL + "/v1/shards/0/log?from=999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized from answered %d, want 400", resp.StatusCode)
	}
}

// TestInstallShardSwapsLive: installing over a running shard keeps the
// slot serving — the replaced shard's digest is gone, the snapshot's is
// live. A tail that is not complete is refused.
func TestInstallShardSwapsLive(t *testing.T) {
	src, err := New(Options{Shards: 2, Config: ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	defer src.Stop()
	ts := httptest.NewServer(src.Handler())
	defer ts.Close()
	driveSomeLoad(t, ts, 1)

	tail, err := src.ShardTail(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := src.ShardTail(1, 1)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New(Options{Shards: 2, Config: ShardConfig{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dst.Start()
	defer dst.Stop()
	if err := dst.InstallShard(part); err == nil {
		t.Fatal("installed a tail with From != 0")
	}
	if err := dst.InstallShard(tail); err != nil {
		t.Fatal(err)
	}
	// The other slot is untouched, the installed one answers with the
	// migrated clock.
	if now, err := dst.Advance(0, 1); err != nil || now != 1 {
		t.Fatalf("slot 0 advance: now=%d err=%v, want 1", now, err)
	}
	got, err := dst.ShardTail(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != tail.Digest {
		t.Fatalf("slot 1 digest %016x, want %016x", got.Digest, tail.Digest)
	}
}

// TestTailCarriesChangedBooks: a tail cut from the log index a follower
// holds carries only the book entries changed since, so one reweight
// ships one entry whatever the task count, while the books digest still
// covers every entry. A replica holding the whole log but only the
// delta's book entries fails that digest.
func TestTailCarriesChangedBooks(t *testing.T) {
	for _, tasks := range []int{16, 1024} {
		t.Run(fmt.Sprint(tasks), func(t *testing.T) {
			srv, err := New(Options{Shards: 1, Config: ShardConfig{M: 2}})
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			defer srv.Stop()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			joins := make([]string, tasks)
			for i := range joins {
				joins[i] = fmt.Sprintf(`{"op":"join","task":"T%d","weight":"1/2048"}`, i)
			}
			post(t, ts, 0, "commands", "["+strings.Join(joins, ",")+"]")
			post(t, ts, 0, "advance", `{"slots":1}`)
			cut, err := srv.ShardTail(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cut.Total != tasks || len(cut.Admission.Names) != tasks {
				t.Fatalf("complete tail: log %d, %d book entries; want %d of each", cut.Total, len(cut.Admission.Names), tasks)
			}

			post(t, ts, 0, "commands", `{"op":"reweight","task":"T7","weight":"1/1024"}`)
			delta, err := srv.ShardTail(0, cut.Total)
			if err != nil {
				t.Fatal(err)
			}
			want := admissionState{Names: []string{"T7"}, Requested: []taskWeight{{Task: "T7", Weight: frac.New(1, 1024)}}}
			if !reflect.DeepEqual(delta.Admission, want) {
				t.Fatalf("delta carries books %+v, want only T7 at 1/1024", delta.Admission)
			}
			if delta.BooksDigest == cut.BooksDigest {
				t.Fatal("books digest did not move with the reweight")
			}
			applyAll(t, cut, delta)
			alone := *delta
			alone.From = 0
			alone.Commands = cut.Commands
			if err := NewReplica(0).Apply(&alone); err == nil || !strings.Contains(err.Error(), "books digest") {
				t.Fatalf("the delta's book entries alone pass the whole-books digest (err %v)", err)
			}
		})
	}
}

// requireRunningBooksDigest fails unless the books' running digest
// equals the XOR of every entry's hash recomputed from scratch.
func requireRunningBooksDigest(t *testing.T, what string, a *admission) {
	t.Helper()
	var want uint64
	for _, e := range a.tasks {
		want ^= e.hash()
	}
	if got := a.digest(); got != want {
		t.Fatalf("%s: running books digest %016x, recomputed %016x", what, got, want)
	}
}

// requireStampOrder fails unless the books' stamp-order list holds
// every entry once, newest stamp last, and state(f), which walks it,
// gives what fullScanState gives for each f in fs.
func requireStampOrder(t *testing.T, what string, a *admission, fs ...int) {
	t.Helper()
	n := 0
	for e := a.last; e != nil; e = e.prev {
		if e.prev != nil && (e.prev.next != e || e.prev.at > e.at) {
			t.Fatalf("%s: stamp-order list broken at %q (at %d) after %q (at %d)", what, e.name, e.at, e.prev.name, e.prev.at)
		}
		n++
	}
	if n != len(a.tasks) {
		t.Fatalf("%s: stamp-order list holds %d of %d entries", what, n, len(a.tasks))
	}
	for _, f := range fs {
		if got, want := a.state(f), fullScanState(a, f); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: state(%d) = %+v, full scan %+v", what, f, got, want)
		}
	}
}

// TestFoldedBooksTrackThePrimary: a replica that applies each tail cut
// from the log index of the cut before it holds the primary's books,
// entry by entry, after every apply, so the stamps leave out no changed
// entry. Random
// histories under every policy, and with early release, cover deferred
// joins and leaves the engine holds for rule L, and cuts land both
// between admissions and at slot boundaries. The
// running books digest of both sides must equal one recomputed from
// scratch after every admission, boundary and apply, and state(f) on
// both sides must give what a scan over every entry gives, for cuts at
// 0, at the last cut, inside the log, at its end and past it. (release
// of a join is not reached: it runs only when the engine refuses an
// admitted join.)
func TestFoldedBooksTrackThePrimary(t *testing.T) {
	// One processor, so condition J defers some of genScript's joins.
	cfgs := map[string]ShardConfig{
		"oi":            {M: 1, Policy: "oi"},
		"lj":            {M: 1, Policy: "lj"},
		"hybrid":        {M: 1, Policy: "hybrid", OIThreshold: frac.New(1, 8)},
		"early-release": {M: 1, Policy: "oi", EarlyRelease: true},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				const horizon = 60
				script := genScript(seed, horizon)
				coin := stats.NewStream(seed, 11)
				sh := testShard(t, cfg, 8)
				rep, from := NewReplica(0), 0
				maybeCut := func() {
					what, n := fmt.Sprintf("seed %d primary at t=%d", seed, sh.eng.Now()), sh.log.len()
					requireRunningBooksDigest(t, what, sh.adm)
					requireStampOrder(t, what, sh.adm, 0, from, n/2, n, n+1)
					if coin.Intn(2) == 0 {
						return
					}
					tl, err := sh.tail(from, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := rep.Apply(tl); err != nil {
						t.Fatalf("seed %d at t=%d, cut from %d: %v", seed, tl.Now, from, err)
					}
					what = fmt.Sprintf("seed %d applied at t=%d", seed, tl.Now)
					requireRunningBooksDigest(t, what, rep.adm)
					requireStampOrder(t, what, rep.adm, 0, from, tl.Total/2, tl.Total, tl.Total+1)
					if got, want := rep.adm.state(0), sh.adm.state(0); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d at t=%d: replica books %+v, primary %+v", seed, tl.Now, got, want)
					}
					from = tl.Total
				}
				for slot := int64(0); slot < horizon; slot++ {
					for _, s := range script {
						if s.slot == slot {
							admitScripted(sh, s.cmd)
							maybeCut()
						}
					}
					sh.advance(1)
					maybeCut()
				}
				if got, want := rep.adm.state(0), sh.adm.state(0); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: replica books %+v, primary %+v", seed, got, want)
				}
			}
		})
	}
}

// fullScanState is admission.state as a scan over every entry, the
// oracle for the stamp-order walk.
func fullScanState(a *admission, from int) admissionState {
	var st admissionState
	st.Names = make([]string, 0, len(a.tasks))
	for name, e := range a.tasks {
		if e.at < from {
			continue
		}
		st.Names = append(st.Names, name)
		if e.live {
			st.Requested = append(st.Requested, taskWeight{Task: name, Weight: e.w})
		}
		if e.pending {
			st.Pending = append(st.Pending, name)
		}
		if e.leaving {
			st.Leaving = append(st.Leaving, name)
		}
	}
	sort.Strings(st.Names)
	sort.Slice(st.Requested, func(i, j int) bool { return st.Requested[i].Task < st.Requested[j].Task })
	sort.Strings(st.Pending)
	sort.Strings(st.Leaving)
	return st
}

// TestBatchDigestMatchesFmt: batchDigest hashes the bytes the fmt
// rendering it replaced hashed, so v4 tails and snapshot files keep
// verifying. Random batches draw names with quotes, backslashes,
// control bytes, non-ASCII, U+2028, invalid UTF-8 and more than the
// line buffer holds, and weights across the int64 range; an ordinary
// batch hashes without allocating.
func TestBatchDigestMatchesFmt(t *testing.T) {
	fmtDigest := func(batch []core.Command) uint64 {
		if len(batch) == 0 {
			return 0
		}
		h := fnv.New64a()
		for _, c := range batch {
			fmt.Fprintf(h, "%s %q %s %q\n", c.Op, c.Task, c.Weight, c.Group)
		}
		return h.Sum64()
	}
	pieces := []string{"A", "t7", `"`, `\`, "\x00", "\n", "é", "タスク", "\u2028", "\u2029", "\xff", "\x7f", "😀", "<&>", strings.Repeat("long", 40)}
	weights := []frac.Rat{{}, frac.Zero, frac.New(1, 64), frac.New(-3, 7), frac.FromInt(math.MinInt64), frac.New(math.MaxInt64, math.MaxInt64-1)}
	r := stats.NewStream(26, 0)
	name := func() string {
		var b strings.Builder
		for n := r.Intn(4); n > 0; n-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	for trial := 0; trial < 500; trial++ {
		batch := make([]core.Command, r.Intn(6))
		for i := range batch {
			batch[i] = core.Command{
				At:     int64(r.Intn(100)),
				Op:     []core.CommandOp{core.OpJoin, core.OpReweight, core.OpLeave}[r.Intn(3)],
				Task:   name(),
				Weight: weights[r.Intn(len(weights))],
				Group:  name(),
			}
		}
		if got, want := batchDigest(batch), fmtDigest(batch); got != want {
			t.Fatalf("trial %d: batchDigest %016x, fmt rendering %016x, batch %+v", trial, got, want, batch)
		}
	}
	batch := []core.Command{
		{Op: core.OpJoin, Task: "A", Weight: frac.New(1, 64)},
		{Op: core.OpReweight, Task: "B", Weight: frac.New(3, 64), Group: "g"},
		{Op: core.OpLeave, Task: "C"},
	}
	if got := testing.AllocsPerRun(100, func() { batchDigest(batch) }); got != 0 {
		t.Errorf("batchDigest allocates %.1f times for a 3-command batch, want 0", got)
	}
}

// TestEncodeTailMatchesEncoder: the streaming tail writer must produce
// the bytes writeJSON's json.Encoder does for a Tail without the codec
// (tailRef), with the log empty, inside one flush, around the first
// flush and across many, for names JSON escapes and with a batch and
// book entries in the tail.
func TestEncodeTailMatchesEncoder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 600, 700, 1024, 5000} {
		tl := &Tail{
			Version: tailVersion, Shard: 1, Config: ShardConfig{M: 2, Policy: "hybrid", OIThreshold: frac.New(1, 8)},
			From: 3, Total: 3 + n, Now: 4000, Digest: 0xfeedface,
			Batch: []core.Command{{At: 4000, Op: core.OpJoin, Task: "<b>&\u2028", Weight: frac.New(1, 3), Group: "g>"}},
			Admission: admissionState{
				Names:     []string{"<b>&\u2028", "T&1"},
				Requested: []taskWeight{{Task: "<b>&\u2028", Weight: frac.New(1, 3)}, {Task: "T&1", Weight: frac.Zero}},
				Pending:   []string{"<b>&\u2028"},
			},
			BooksDigest: 7,
		}
		for i := 0; i < n; i++ {
			tl.Commands = append(tl.Commands, core.Command{
				At: int64(i / 3), Op: core.CommandOp(i % 3), Task: fmt.Sprintf("T&%d<%d>", i%7, i), Weight: frac.New(1, int64(2+i%9)),
			})
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, (*tailRef)(tl))
		var got bytes.Buffer
		if err := EncodeTail(&got, tl); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%d commands: EncodeTail differs from json.Encoder\n got %.300q\nwant %.300q", n, got.Bytes(), want.Body.Bytes())
		}
	}
}
