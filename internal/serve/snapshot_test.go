package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/stats"
)

// scripted is one randomized command attempt at a given slot.
type scripted struct {
	slot int64
	cmd  core.Command
}

// genScript builds a randomized command schedule. The same script is
// fed to the uninterrupted shard and to the snapshot/restore pair, so
// any divergence is the shard's fault, not the generator's.
func genScript(seed uint64, horizon int64) []scripted {
	r := stats.NewStream(seed, 7)
	var script []scripted
	nextName := 0
	var names []string
	for slot := int64(0); slot < horizon; slot++ {
		for k := r.Intn(3); k > 0; k-- {
			switch r.Intn(5) {
			case 0, 1: // join a fresh name
				name := fmt.Sprintf("T%d", nextName)
				nextName++
				names = append(names, name)
				script = append(script, scripted{slot, core.Command{
					Op: core.OpJoin, Task: name,
					Weight: frac.New(int64(1+r.Intn(5)), 16),
				}})
			case 2, 3: // reweight a known name (may be rejected; fine)
				if len(names) == 0 {
					continue
				}
				script = append(script, scripted{slot, core.Command{
					Op: core.OpReweight, Task: names[r.Intn(len(names))],
					Weight: frac.New(int64(1+r.Intn(7)), 16),
				}})
			case 4: // leave a known name
				if len(names) == 0 {
					continue
				}
				script = append(script, scripted{slot, core.Command{
					Op: core.OpLeave, Task: names[r.Intn(len(names))],
				}})
			}
		}
	}
	return script
}

// admitScripted feeds one scripted command through admission, deriving
// the wire-name bytes the way the decoder would.
func admitScripted(sh *Shard, c core.Command) CommandResult {
	w := wireCmd{Command: c, raw: []byte(c.Task)}
	return sh.admit(&w)
}

// playSlot admits every script entry for the given slot, then advances
// one boundary.
func playSlot(sh *Shard, script []scripted, slot int64) {
	for _, s := range script {
		if s.slot == slot {
			admitScripted(sh, s.cmd)
		}
	}
	sh.advance(1)
}

func engineState(t *testing.T, sh *Shard) string {
	t.Helper()
	var b strings.Builder
	if err := sh.eng.WriteState(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSnapshotRestoreRoundTrip is a randomized round-trip: for each
// policy, a shard runs a random command history; at a cut slot — with
// commands already staged in the batch — it is snapshotted through
// JSON, restored, and both copies play the identical remainder. The
// restored engine must match byte for byte at every step, and the
// books the restore folds must equal the live shard's.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cfgs := map[string]ShardConfig{
		"oi":     {M: 2, Policy: "oi", RecordSchedule: true},
		"lj":     {M: 2, Policy: "lj", RecordSchedule: true},
		"hybrid": {M: 2, Policy: "hybrid", OIThreshold: frac.New(1, 8), RecordSchedule: true},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				const cut, horizon = 13, 40
				script := genScript(seed, horizon)

				live := testShard(t, cfg, 8)
				for slot := int64(0); slot < cut; slot++ {
					playSlot(live, script, slot)
				}
				// Stage the cut slot's commands but do NOT advance: the
				// snapshot must carry the un-applied batch.
				for _, s := range script {
					if s.slot == cut {
						admitScripted(live, s.cmd)
					}
				}

				data, err := json.Marshal(mustSnapshot(t, live))
				if err != nil {
					t.Fatal(err)
				}
				var snap Snapshot
				if err := json.Unmarshal(data, &snap); err != nil {
					t.Fatal(err)
				}
				restored, err := restoreShard(&snap, 8)
				if err != nil {
					t.Fatal(err)
				}

				if got, want := engineState(t, restored), engineState(t, live); got != want {
					t.Fatalf("seed %d: restored engine diverges at the cut:\n--- live ---\n%s--- restored ---\n%s",
						seed, want, got)
				}
				requireBooks(t, fmt.Sprintf("seed %d restored", seed), restored.adm, live.adm)
				if len(restored.batch) != len(live.batch) {
					t.Fatalf("seed %d: restored batch %d entries, live %d",
						seed, len(restored.batch), len(live.batch))
				}

				// Both play the identical remainder (the cut slot's entries
				// are already staged in both).
				live.advance(1)
				restored.advance(1)
				for slot := int64(cut + 1); slot < horizon; slot++ {
					playSlot(live, script, slot)
					playSlot(restored, script, slot)
					if live.eng.StateDigest() != restored.eng.StateDigest() {
						t.Fatalf("seed %d: digests diverge at slot %d", seed, slot)
					}
				}
				if got, want := engineState(t, restored), engineState(t, live); got != want {
					t.Fatalf("seed %d: final states diverge:\n--- live ---\n%s--- restored ---\n%s",
						seed, want, got)
				}
				if live.ctr.failedApplies != 0 || restored.ctr.failedApplies != 0 {
					t.Fatalf("seed %d: failed applies: live %d, restored %d", seed,
						live.ctr.failedApplies, restored.ctr.failedApplies)
				}
			}
		})
	}
}

// TestRestoreRejectsTamperedSnapshot: a snapshot whose log no longer
// matches its engine digest, or whose staged batch no longer matches
// its books digest, must be refused, not silently restored, and so must
// one that carries book entries in a format that has none. A is at 1/4
// with a reweight to 1/8 staged: a restore that lost the batch would
// drop a reweight its client saw admitted.
func TestRestoreRejectsTamperedSnapshot(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 2, RecordSchedule: true}, 8)
	admitOne(sh, core.OpJoin, "A", frac.New(1, 4))
	admitOne(sh, core.OpJoin, "B", frac.New(1, 3))
	sh.advance(8)
	admitOne(sh, core.OpReweight, "A", frac.New(1, 8))
	for _, tc := range []struct {
		name   string
		tamper func(*Snapshot)
		want   string // in the error
	}{
		{"digest", func(snap *Snapshot) { snap.Digest++ }, "digest mismatch"},
		{"batch", func(snap *Snapshot) { snap.Batch = nil }, "books digest mismatch"},
		{"book-entries", func(snap *Snapshot) {
			snap.Admission = &admissionState{Names: []string{"A"}, Requested: []taskWeight{{Task: "A", Weight: frac.New(1, 8)}}}
		}, "carries book entries"},
	} {
		snap := mustSnapshot(t, sh)
		tc.tamper(snap)
		if _, err := restoreShard(snap, 8); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("tampered %s restored with error %v, want a %s", tc.name, err, tc.want)
		}
	}
	if _, err := restoreShard(mustSnapshot(t, sh), 8); err != nil {
		t.Fatalf("clean snapshot refused: %v", err)
	}
}

// TestRestoreRejectsBadVersion guards the format gate: a version-1 file
// (the format before a snapshot was a complete tail) and an unknown
// version are both refused.
func TestRestoreRejectsBadVersion(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 4)
	for _, v := range []int{1, 99} {
		snap := mustSnapshot(t, sh)
		snap.Version = v
		if _, err := restoreShard(snap, 4); err == nil {
			t.Fatalf("snapshot version %d restored without error", v)
		}
	}
}

// mustSnapshot cuts sh's snapshot, its complete tail.
func mustSnapshot(t *testing.T, sh *Shard) *Snapshot {
	t.Helper()
	snap, err := sh.tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// stagedShard returns an M=1 shard whose staged work is one leave in
// the batch. C's join waited in the engine for A's reweight down to
// enact, which let it in at the end of the slot that followed.
func stagedShard(t *testing.T) *Shard {
	t.Helper()
	sh := testShard(t, ShardConfig{M: 1}, 8)
	admitOne(sh, core.OpJoin, "A", frac.New(1, 2))
	admitOne(sh, core.OpJoin, "B", frac.New(1, 2))
	sh.advance(2)
	admitOne(sh, core.OpReweight, "A", frac.New(1, 4))
	admitOne(sh, core.OpJoin, "C", frac.New(1, 4))
	sh.advance(1)
	admitOne(sh, core.OpLeave, "B", frac.Rat{})
	if len(sh.batch) != 1 || sh.batch[0].Op != core.OpLeave || !sh.eng.Joined("C") || sh.ctr.deferred != 1 {
		t.Fatalf("staged batch %v, C joined %v after %d deferrals; want one leave, and C in after one",
			sh.batch, sh.eng.Joined("C"), sh.ctr.deferred)
	}
	return sh
}

// editSnapshot round-trips sh's snapshot through its JSON object, with
// edit changing the top-level fields in between.
func editSnapshot(t *testing.T, sh *Shard, edit func(map[string]json.RawMessage)) *Snapshot {
	t.Helper()
	data, err := json.Marshal(mustSnapshot(t, sh))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	edit(fields)
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// TestRestoreReadsSnapshotWithoutAt: staged entries written without an
// `at` key, as snapshots were before staged work became core.Command
// records, restore and run on to the digest the uninterrupted shard
// reaches.
func TestRestoreReadsSnapshotWithoutAt(t *testing.T) {
	live := stagedShard(t)
	snap := editSnapshot(t, live, func(fields map[string]json.RawMessage) {
		for _, key := range []string{"batch"} {
			var entries []map[string]json.RawMessage
			if err := json.Unmarshal(fields[key], &entries); err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if _, ok := e["at"]; !ok {
					t.Fatalf("%s entry %v carries no at", key, e)
				}
				delete(e, "at")
			}
			data, err := json.Marshal(entries)
			if err != nil {
				t.Fatal(err)
			}
			fields[key] = data
		}
	})
	restored, err := restoreShard(snap, 8)
	if err != nil {
		t.Fatal(err)
	}
	live.advance(20)
	restored.advance(20)
	if live.eng.Now() != restored.eng.Now() || live.eng.StateDigest() != restored.eng.StateDigest() {
		t.Fatalf("restored at (now=%d, %016x), live at (now=%d, %016x)", restored.eng.Now(),
			restored.eng.StateDigest(), live.eng.Now(), live.eng.StateDigest())
	}
	if live.ctr.failedApplies != 0 || restored.ctr.failedApplies != 0 {
		t.Fatalf("failed applies: live %d, restored %d", live.ctr.failedApplies, restored.ctr.failedApplies)
	}
}

// TestReplicaRefusesUnstageableWork: pending work no shard could have
// staged — an op admission never takes, a non-join waiting on
// condition J, or queues a version-4 shard keeps in its engine — is a
// hard error for a replica and for a restore, not a gap to resync from.
func TestReplicaRefusesUnstageableWork(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 1}, 4)
	admitOne(sh, core.OpJoin, "A", frac.New(1, 4))
	sh.advance(1)
	for _, tc := range []struct {
		name, key, entries string
		version            int
		want               string // in the error
	}{
		{"delay in batch", "batch", `[{"at":1,"op":"delay","task":"A","arg":1}]`, tailVersion, "is a delay"},
		{"reweight in deferred joins", "deferred_joins", `[{"at":1,"op":"reweight","task":"A","weight":"1/8"}]`, 3, "is a reweight"},
		{"deferred joins in a version-4 tail", "deferred_joins", `[{"at":1,"op":"join","task":"B","weight":"1/8"}]`, 4, "carries deferred work"},
		{"deferred leaves in a version-3 tail", "deferred_leaves", `["A"]`, 3, "carries deferred work"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := editSnapshot(t, sh, func(fields map[string]json.RawMessage) {
				fields[tc.key] = json.RawMessage(tc.entries)
				fields["version"] = json.RawMessage(fmt.Sprint(tc.version))
			})
			_, restoreErr := restoreShard(snap, 4)
			for what, err := range map[string]error{"Replica.Apply": NewReplica(0).Apply(snap), "restoreShard": restoreErr} {
				var gap GapError
				if err == nil || errors.As(err, &gap) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s answered %v, want a hard error that %s", what, err, tc.want)
				}
			}
		})
	}
}

// TestRestoreVersion2Snapshot restores the files older shards wrote,
// each a complete tail whose books the restore checks against its books
// digest and then folds anew from the engine and the staged work:
//
//   - testdata/snapshot_v2.json (M=2, early release) holds a join that
//     condition J was deferring outside the engine, a staged leave and a
//     leave rule L was deferring;
//   - testdata/snapshot_v3.json (M=2, early release) holds that join
//     too, and a staged join and reweight. The shard that wrote it let
//     both joins in at t=7 and reached digest v3At40 at t=40;
//   - testdata/snapshot_v4.json (M=2) holds a staged join, reweight and
//     leave, a join condition J holds and a leave rule L holds in the
//     engine, and X, a departed name. The shard that wrote it booked 3/2
//     of M=2 and reached digest v4At40 at t=40.
//
// Each log replays to its engine digest, and the folded books hold the
// live entries the file's books held, so the requested total and
// headroom are the writer's. Deferred work is staged in the order its
// version flushed it: deferred leaves, then deferred joins, then the
// batch. A join of a departed name is refused. The shard then drains
// every queue without a failed apply, and cuts a current tail that
// replays to its digest.
func TestRestoreVersion2Snapshot(t *testing.T) {
	const v3At40, v4At40 = 0xd126a82622914300, 0xc4436cacf148b7a8
	for _, tc := range []struct {
		file      string
		version   int
		staged    []string // op and task of each staged command, in order
		departed  string   // a name the engine let in and let go
		requested string   // the writer's requested total
		peak      int64    // deferred-join peak after the drain; 0 is not checked
		at40      uint64   // digest at t=40; 0 is not checked
	}{
		{"testdata/snapshot_v2.json", 2, []string{"leave B", "join E", "leave C"}, "", "13/8", 0, 0},
		{"testdata/snapshot_v3.json", 3, []string{"join E", "join F", "reweight C"}, "", "13/8", 2, v3At40},
		{"testdata/snapshot_v4.json", 4, []string{"join F", "reweight C", "leave A2"}, "X", "3/2", 2, v4At40},
	} {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			snap := readSnapshot(t, tc.file)
			if snap.Version != tc.version || snap.Admission == nil {
				t.Fatalf("fixture is version %d with books %v", snap.Version, snap.Admission)
			}
			sh, err := restoreShard(snap, 8)
			if err != nil {
				t.Fatal(err)
			}
			var staged []string
			for _, c := range sh.batch {
				staged = append(staged, c.Op.String()+" "+c.Task)
			}
			if fmt.Sprint(staged) != fmt.Sprint(tc.staged) {
				t.Fatalf("restored batch %v, want %v", staged, tc.staged)
			}
			if got, want := booksOf(sh.adm), fileBooks(snap.Admission, sh.eng); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored books %v, the file's %v", got, want)
			}
			st := sh.status(sh.eng.Live(), false)
			if st.RequestedWt != tc.requested || st.Headroom != frac.FromInt(2).Sub(sh.adm.total).String() {
				t.Fatalf("restored requested %s with headroom %s, want %s of M=2", st.RequestedWt, st.Headroom, tc.requested)
			}
			if tc.departed != "" {
				if res := admitOne(sh, core.OpJoin, tc.departed, frac.New(1, 64)); res.Error != errConflict {
					t.Fatalf("join of departed %s answered %+v, want a conflict", tc.departed, res)
				}
			}
			for {
				st := sh.status(sh.eng.Live(), false)
				if st.FailedApplies != 0 {
					t.Fatalf("at t=%d: %d failed applies", st.Now, st.FailedApplies)
				}
				if st.PendingBatch+st.DeferredJoins+st.DeferredLeaves == 0 {
					break
				}
				if st.Now > 100 {
					t.Fatalf("at t=%d: batch %d, deferred joins %d, deferred leaves %d still pending",
						st.Now, st.PendingBatch, st.DeferredJoins, st.DeferredLeaves)
				}
				sh.advance(1)
			}
			if peak := sh.ctr.deferredJoinPeak; tc.peak != 0 && peak != tc.peak {
				t.Errorf("deferred-join peak %d, want %d", peak, tc.peak)
			}
			tail := mustSnapshot(t, sh)
			digest, err := VerifyTail(tail)
			if err != nil {
				t.Fatal(err)
			}
			if tail.Version != tailVersion || digest != tail.Digest {
				t.Fatalf("restored shard's tail is version %d with digest %016x, replays to %016x",
					tail.Version, tail.Digest, digest)
			}
			if tc.at40 != 0 {
				sh.advance(40 - sh.eng.Now())
				if got := sh.eng.StateDigest(); got != tc.at40 {
					t.Errorf("digest at t=40 is %016x, the writing shard's was %016x", got, tc.at40)
				}
			}
		})
	}
}

// TestRestoreRejectsAlteredVersion4Snapshot: the version-4 fixture
// with one book entry changed fails its books digest on restore, and so
// does its delta from log index 6 on a follower that holds the log up
// to there. That delta carries every book entry but X's, the one entry
// last changed before index 6. A version-4 tail's books are checked
// before the fold discards them, so such a delta is a hard error and
// the follower resyncs from 0.
func TestRestoreRejectsAlteredVersion4Snapshot(t *testing.T) {
	const file = "testdata/snapshot_v4.json"
	snap := readSnapshot(t, file)
	w := &snap.Admission.Requested[0].Weight
	*w = w.Div(frac.FromInt(2))
	if _, err := restoreShard(snap, 8); err == nil || !strings.Contains(err.Error(), "books digest mismatch") {
		t.Fatalf("snapshot with an altered book entry restored with %v, want a books digest mismatch", err)
	}

	const from = 6
	delta := readSnapshot(t, file)
	prefix := *delta
	at := delta.Commands[from].At
	eng, err := core.Replay(mustCoreConfig(t, prefix.Config), prefix.Seed, prefix.Commands[:from], at)
	if err != nil {
		t.Fatal(err)
	}
	prefix.Version, prefix.Total, prefix.Now, prefix.Digest = tailVersion, from, at, eng.StateDigest()
	prefix.Commands, prefix.Batch, prefix.Admission, prefix.BooksDigest = prefix.Commands[:from], nil, nil, 0
	rep := NewReplica(0)
	if err := rep.Apply(&prefix); err != nil {
		t.Fatal(err)
	}
	delta.From, delta.Commands = from, delta.Commands[from:]
	delta.Admission.Names = slices.DeleteFunc(delta.Admission.Names, func(n string) bool { return n == "X" })
	err = rep.Apply(delta)
	var gap GapError
	if err == nil || errors.As(err, &gap) || !strings.Contains(err.Error(), "books digest mismatch") {
		t.Fatalf("version-4 delta applied with %v, want a books digest mismatch", err)
	}
}

// TestRestoreStagedJoinWithoutBookEntry: a version-3 file whose
// deferred join E has no book entry, with its books digest made to
// match, restores, and the fold gives E its entry: E is booked at its
// weight, pending, and the boundary that hands E to the engine neither
// panics nor fails: E waits and enters like any other join.
func TestRestoreStagedJoinWithoutBookEntry(t *testing.T) {
	snap := readSnapshot(t, "testdata/snapshot_v3.json")
	books := snap.Admission
	without := func(names []string) (kept []string) {
		for _, n := range names {
			if n != "E" {
				kept = append(kept, n)
			}
		}
		return kept
	}
	books.Names, books.Pending = without(books.Names), without(books.Pending)
	var requested []taskWeight
	for _, tw := range books.Requested {
		if tw.Task != "E" {
			requested = append(requested, tw)
		}
	}
	books.Requested = requested
	snap.BooksDigest = books.digest()

	sh, err := restoreShard(snap, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e := sh.adm.tasks["E"]; e == nil || !e.pending || e.w != frac.New(1, 2) {
		t.Fatalf("restored E booked as %+v, want pending at 1/2", e)
	}
	sh.advance(20)
	if st := sh.status(sh.eng.Live(), false); st.FailedApplies != 0 || st.DeferredJoins != 0 || !sh.eng.Joined("E") {
		t.Fatalf("at t=%d: %d failed applies, %d joins held, E joined %v", st.Now, st.FailedApplies, st.DeferredJoins, sh.eng.Joined("E"))
	}
}

// readSnapshot decodes a snapshot file.
func readSnapshot(t *testing.T, file string) *Snapshot {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

func mustCoreConfig(t *testing.T, cfg ShardConfig) core.Config {
	t.Helper()
	ccfg, err := cfg.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	return ccfg
}

// bookRow is one book entry as the tests compare it. A pending mark
// counts only while the engine has not let the task in: a shard clears
// the mark lazily, on the task's next reweight or leave.
type bookRow struct {
	w                frac.Rat
	pending, leaving bool
}

// booksOf returns a's entries as rows.
func booksOf(a *admission) map[string]bookRow {
	rows := make(map[string]bookRow, len(a.tasks))
	for name, e := range a.tasks {
		rows[name] = bookRow{w: e.w, pending: e.pending && !a.eng.Joined(name), leaving: e.leaving}
	}
	return rows
}

// fileBooks returns the live entries an older tail's books carried as
// rows, pending marks read against eng.
func fileBooks(st *admissionState, eng *core.Scheduler) map[string]bookRow {
	rows := make(map[string]bookRow, len(st.Requested))
	for _, tw := range st.Requested {
		rows[tw.Task] = bookRow{
			w:       tw.Weight,
			pending: slices.Contains(st.Pending, tw.Task) && !eng.Joined(tw.Task),
			leaving: slices.Contains(st.Leaving, tw.Task),
		}
	}
	return rows
}

// requireBooks fails unless got holds want's entries, compared as
// bookRows, and its total.
func requireBooks(t *testing.T, what string, got, want *admission) {
	t.Helper()
	if g, w := booksOf(got), booksOf(want); !reflect.DeepEqual(g, w) || got.total != want.total {
		t.Fatalf("%s: books %v (total %s), want %v (total %s)", what, g, got.total, w, want.total)
	}
}
