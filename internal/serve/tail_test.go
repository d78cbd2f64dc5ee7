package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
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
// replica's snapshot and serve the same digest and requested total.
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
	// the engine the replica rebuilt from that cut still holds it.
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

	// Incremental tail applies onto the log of the cut it follows.
	delta := fetch(base.Total)
	if delta.From != base.Total || delta.Admission != nil {
		t.Fatalf("delta from %d carries books %+v, want from %d and none", delta.From, delta.Admission, base.Total)
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
	src, inst := srv.shardAt(0), dst.shardAt(0)
	if got, want := inst.view.read(&inst.reqs), src.view.read(&src.reqs); got.RequestedWt != want.RequestedWt || got.Headroom != want.Headroom {
		t.Fatalf("installed shard books %s with headroom %s, want %s with %s",
			got.RequestedWt, got.Headroom, want.RequestedWt, want.Headroom)
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

// TestFoldedBooksTrackThePrimary: books folded from a shard's engine
// and staged batch (foldBooks, as a restore or a promotion builds them)
// equal the shard's own, entry by entry, after every admission and
// boundary of random histories under every policy, and with early
// release, at M = 1, 2 and 4; and so do books folded from a replica
// that applied tails cut along the way, between admissions and at
// boundaries. Every name the shard admitted a join for that is outside
// its books is one the engine has let in, so it stays burned. (release
// of a join is not reached: it runs only when the engine refuses an
// admitted join.)
func TestFoldedBooksTrackThePrimary(t *testing.T) {
	policies := map[string]ShardConfig{
		"oi":            {Policy: "oi"},
		"lj":            {Policy: "lj"},
		"hybrid":        {Policy: "hybrid", OIThreshold: frac.New(1, 8)},
		"early-release": {Policy: "oi", EarlyRelease: true},
	}
	for name, cfg := range policies {
		t.Run(name, func(t *testing.T) {
			for _, m := range []int{1, 2, 4} {
				cfg.M = m
				for seed := uint64(1); seed <= 5; seed++ {
					foldAlongHistory(t, cfg, seed)
				}
			}
		})
	}
}

// foldAlongHistory runs one TestFoldedBooksTrackThePrimary history.
func foldAlongHistory(t *testing.T, cfg ShardConfig, seed uint64) {
	const horizon = 60
	script := genScript(seed, horizon)
	coin := stats.NewStream(seed, 11)
	sh := testShard(t, cfg, 8)
	rep, from := NewReplica(0), 0
	joined := map[string]bool{}
	check := func() {
		what := fmt.Sprintf("M=%d seed %d at t=%d", cfg.M, seed, sh.eng.Now())
		folded, err := foldBooks(sh.eng, sh.batch)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireBooks(t, what, folded, sh.adm)
		for name := range joined {
			if sh.adm.tasks[name] == nil && !sh.eng.Joined(name) {
				t.Fatalf("%s: %q is outside the books, and the engine never let it in", what, name)
			}
		}
		if coin.Intn(2) == 0 {
			return
		}
		tl, err := sh.tail(from, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Apply(tl); err != nil {
			t.Fatalf("%s, cut from %d: %v", what, from, err)
		}
		promoted, err := foldBooks(rep.eng, rep.batch)
		if err != nil {
			t.Fatalf("%s, replica: %v", what, err)
		}
		requireBooks(t, what+", replica", promoted, sh.adm)
		from = tl.Total
	}
	for slot := int64(0); slot < horizon; slot++ {
		for _, s := range script {
			if s.slot == slot {
				if res := admitScripted(sh, s.cmd); res.Status == "queued" && s.cmd.Op == core.OpJoin {
					joined[s.cmd.Task] = true
				}
				check()
			}
		}
		sh.advance(1)
		check()
	}
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
			Admission: &admissionState{
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
