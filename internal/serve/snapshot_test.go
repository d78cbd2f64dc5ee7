package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/frac"
	"repro/internal/stats"
)

// scripted is one randomized command attempt at a given slot.
type scripted struct {
	slot int64
	cmd  wireCmd
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
				script = append(script, scripted{slot, wireCmd{
					op: opJoin, task: name,
					weight: frac.New(int64(1+r.Intn(5)), 16),
				}})
			case 2, 3: // reweight a known name (may be rejected; fine)
				if len(names) == 0 {
					continue
				}
				script = append(script, scripted{slot, wireCmd{
					op: opReweight, task: names[r.Intn(len(names))],
					weight: frac.New(int64(1+r.Intn(7)), 16),
				}})
			case 4: // leave a known name
				if len(names) == 0 {
					continue
				}
				script = append(script, scripted{slot, wireCmd{
					op: opLeave, task: names[r.Intn(len(names))],
				}})
			}
		}
	}
	return script
}

// admitScripted feeds one scripted command through admission, deriving
// the wire-name bytes the way the decoder would.
func admitScripted(sh *Shard, c wireCmd) {
	c.raw = []byte(c.task)
	sh.admit(&c)
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

// TestSnapshotRestoreRoundTrip is the satellite's randomized
// round-trip: for each policy, a shard runs a random command history;
// at a cut slot — with commands already staged in the batch — it is
// snapshotted through JSON, restored, and both copies play the
// identical remainder. The restored engine must match byte for byte at
// every step, and the admission books must survive the trip.
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
				la, _ := json.Marshal(live.adm.state(0))
				ra, _ := json.Marshal(restored.adm.state(0))
				if string(la) != string(ra) {
					t.Fatalf("seed %d: admission books diverge:\nlive:     %s\nrestored: %s", seed, la, ra)
				}
				requireRunningBooksDigest(t, fmt.Sprintf("seed %d restored", seed), restored.adm)
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
				if live.ctr.failedApplies.Load() != 0 || restored.ctr.failedApplies.Load() != 0 {
					t.Fatalf("seed %d: failed applies: live %d, restored %d", seed,
						live.ctr.failedApplies.Load(), restored.ctr.failedApplies.Load())
				}
			}
		})
	}
}

// TestRestoreRejectsTamperedSnapshot: a snapshot whose log no longer
// matches its engine digest, or whose books no longer match its books
// digest, must be refused, not silently restored.
func TestRestoreRejectsTamperedSnapshot(t *testing.T) {
	sh := testShard(t, ShardConfig{M: 2, RecordSchedule: true}, 8)
	admitOne(sh, opJoin, "A", frac.New(1, 4))
	admitOne(sh, opJoin, "B", frac.New(1, 3))
	sh.advance(8)
	for _, tc := range []struct {
		name   string
		tamper func(*Snapshot)
	}{
		{"digest", func(snap *Snapshot) { snap.Digest++ }},
		{"book-entry", func(snap *Snapshot) {
			w := &snap.Admission.Requested[0].Weight
			*w = w.Div(frac.FromInt(2))
		}},
	} {
		snap := mustSnapshot(t, sh)
		tc.tamper(snap)
		if _, err := restoreShard(snap, 8); err == nil {
			t.Fatalf("tampered %s restored without error", tc.name)
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
	snap, err := sh.buildTail(0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
