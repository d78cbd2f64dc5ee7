package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/frac"
	"repro/internal/model"
	"repro/internal/stats"
)

func TestCommandOpTextRoundTrip(t *testing.T) {
	for op := CommandOp(0); op < numCommandOps; op++ {
		text, err := op.MarshalText()
		if err != nil {
			t.Fatalf("marshal %v: %v", op, err)
		}
		var back CommandOp
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("unmarshal %q: %v", text, err)
		}
		if back != op {
			t.Errorf("round trip %v -> %q -> %v", op, text, back)
		}
	}
	var op CommandOp
	if err := op.UnmarshalText([]byte("frobnicate")); err == nil {
		t.Error("unknown op name unmarshalled without error")
	}
	if _, err := numCommandOps.MarshalText(); err == nil {
		t.Error("sentinel op marshalled without error")
	}
}

func TestCommandJSONRoundTrip(t *testing.T) {
	log := []Command{
		{At: 0, Op: OpJoin, Task: "A", Weight: frac.New(1, 4), Group: "G"},
		{At: 3, Op: OpReweight, Task: "A", Weight: frac.New(2, 5)},
		{At: 7, Op: OpDelay, Task: "A", Arg: 2},
		{At: 9, Op: OpAbsent, Task: "A", Arg: 12},
		{At: 20, Op: OpLeave, Task: "A"},
	}
	data, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"op":"reweight"`) {
		t.Errorf("ops should serialize by name, got %s", data)
	}
	var back []Command
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range log {
		if log[i].At != back[i].At || log[i].Op != back[i].Op || log[i].Task != back[i].Task ||
			!log[i].Weight.Eq(back[i].Weight) || log[i].Group != back[i].Group || log[i].Arg != back[i].Arg {
			t.Errorf("command %d: %+v != %+v", i, log[i], back[i])
		}
	}
}

// replayConfig is the configuration the replay tests drive: schedules
// recorded so WriteState covers CPUs slot by slot.
func replayConfig(policy PolicyKind) Config {
	return Config{
		M: 2, Policy: policy, Police: true,
		RecordSchedule: true, CheckInvariants: true,
	}
}

// TestReplayReproducesRun drives a scheduler through a randomized
// command history, recording every successfully applied command, then
// replays the log against a fresh scheduler and requires byte-identical
// state (WriteState) — the property internal/serve's snapshot/restore
// is built on.
func TestReplayReproducesRun(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyOI, PolicyLJ} {
		t.Run(policy.String(), func(t *testing.T) {
			r := stats.NewStream(42, uint64(policy))
			sys := model.System{M: 2, Tasks: []model.Spec{
				{Name: "A", Weight: frac.New(1, 4)},
				{Name: "B", Weight: frac.New(1, 3)},
				{Name: "C", Weight: frac.New(1, 5), Join: 4},
			}}
			live, err := New(replayConfig(policy), sys)
			if err != nil {
				t.Fatal(err)
			}
			names := []string{"A", "B", "C"}
			var log []Command
			nextJoin := 0
			const horizon = 120
			for now := model.Time(0); now < horizon; now++ {
				switch r.Intn(6) {
				case 0:
					c := Command{At: now, Op: OpReweight,
						Task:   names[r.Intn(len(names))],
						Weight: frac.New(int64(1+r.Intn(4)), 9)}
					if live.Apply(c) == nil {
						log = append(log, c)
					}
				case 1:
					c := Command{At: now, Op: OpJoin,
						Task:   "J" + string(rune('a'+nextJoin)),
						Weight: frac.New(1, 8)}
					if live.Apply(c) == nil {
						log = append(log, c)
						names = append(names, c.Task)
						nextJoin++
					}
				case 2:
					c := Command{At: now, Op: OpLeave, Task: names[r.Intn(len(names))]}
					if live.Apply(c) == nil {
						log = append(log, c)
					}
				case 3:
					c := Command{At: now, Op: OpDelay,
						Task: names[r.Intn(len(names))], Arg: int64(1 + r.Intn(3))}
					if live.Apply(c) == nil {
						log = append(log, c)
					}
				}
				live.Step()
			}

			replayed, err := Replay(replayConfig(policy), sys, log, horizon)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			var want, got strings.Builder
			if err := live.WriteState(&want); err != nil {
				t.Fatal(err)
			}
			if err := replayed.WriteState(&got); err != nil {
				t.Fatal(err)
			}
			if want.String() != got.String() {
				t.Fatalf("replayed state diverges:\n--- live ---\n%s--- replayed ---\n%s",
					want.String(), got.String())
			}
			if live.StateDigest() != replayed.StateDigest() {
				t.Fatal("digests diverge on identical state text")
			}
		})
	}
}

// TestReplayFromSnapshotPoint replays a prefix of a log, continues with
// the suffix, and must converge with the uninterrupted run — the
// snapshot-at-t/restore/advance shape used by serve.
func TestReplayFromSnapshotPoint(t *testing.T) {
	sys := model.System{M: 2, Tasks: []model.Spec{
		{Name: "A", Weight: frac.New(2, 5)},
		{Name: "B", Weight: frac.New(1, 3)},
	}}
	const cut, horizon = 11, 40

	// Record the log from a live run: scripted reweights/joins, plus a
	// leave of A from t=20 on, which Depart holds in the engine until
	// rule L admits it (its legal time depends on the schedule, so it
	// cannot be hardcoded).
	full, err := New(replayConfig(PolicyOI), sys)
	if err != nil {
		t.Fatal(err)
	}
	script := []Command{
		{At: 2, Op: OpReweight, Task: "A", Weight: frac.New(1, 8)},
		{At: 5, Op: OpJoin, Task: "C", Weight: frac.New(1, 2)},
		{At: 9, Op: OpReweight, Task: "B", Weight: frac.New(1, 2)},
		{At: 17, Op: OpReweight, Task: "C", Weight: frac.New(1, 4)},
	}
	var log []Command
	left := false
	for now := model.Time(0); now < horizon; now++ {
		for _, c := range script {
			if c.At == now {
				if err := full.Apply(c); err != nil {
					t.Fatalf("apply %s: %v", c, err)
				}
				log = append(log, c)
			}
		}
		if !left && now >= 20 {
			c := Command{At: now, Op: OpLeave, Task: "A"}
			if full.Apply(c) == nil {
				log = append(log, c)
				left = true
			}
		}
		full.Step()
	}
	if !left {
		t.Fatal("leave of A never admitted")
	}

	var prefix, suffix []Command
	for _, c := range log {
		if c.At < cut {
			prefix = append(prefix, c)
		} else {
			suffix = append(suffix, c)
		}
	}
	resumed, err := Replay(replayConfig(PolicyOI), sys, prefix, cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.ReplayLog(suffix, horizon); err != nil {
		t.Fatal(err)
	}
	if full.StateDigest() != resumed.StateDigest() {
		t.Fatal("snapshot-point replay diverges from uninterrupted run")
	}
}

func TestReplayErrors(t *testing.T) {
	sys := model.System{M: 1, Tasks: []model.Spec{{Name: "A", Weight: frac.New(1, 4)}}}
	cfg := replayConfig(PolicyOI)
	cfg.M = 1
	s, err := New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(Command{At: 3, Op: OpReweight, Task: "A", Weight: frac.New(1, 3)}); err == nil {
		t.Error("Apply at the wrong slot should fail")
	}
	badOrder := []Command{
		{At: 5, Op: OpReweight, Task: "A", Weight: frac.New(1, 3)},
		{At: 2, Op: OpReweight, Task: "A", Weight: frac.New(1, 5)},
	}
	if err := s.ReplayLog(badOrder, 10); err == nil {
		t.Error("out-of-order log should fail")
	}
	s2, err := New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	tail := []Command{{At: 30, Op: OpLeave, Task: "A"}}
	if err := s2.ReplayLog(tail, 10); err == nil {
		t.Error("log past the horizon should fail")
	}
}

// TestStateDigestSensitivity: runs that differ in a single command must
// (overwhelmingly) produce different digests.
func TestStateDigestSensitivity(t *testing.T) {
	sys := model.System{M: 2, Tasks: []model.Spec{
		{Name: "A", Weight: frac.New(1, 4)},
		{Name: "B", Weight: frac.New(1, 3)},
	}}
	a, err := Replay(replayConfig(PolicyOI), sys, nil, 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(replayConfig(PolicyOI), sys,
		[]Command{{At: 4, Op: OpReweight, Task: "A", Weight: frac.New(1, 2)}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.StateDigest() == b.StateDigest() {
		t.Fatal("digest insensitive to a reweight")
	}
}
