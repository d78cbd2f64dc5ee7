package workgen_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/serve"
	"repro/internal/workgen"
)

// startDaemon brings up an in-process pd2d-equivalent and returns its
// base URL.
func startDaemon(t *testing.T, shards int, cfg serve.ShardConfig) string {
	t.Helper()
	srv, err := serve.New(serve.Options{Shards: shards, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Stop()
	})
	return ts.URL
}

type wireCmd struct {
	Op     string `json:"op"`
	Task   string `json:"task"`
	Weight string `json:"weight,omitempty"`
	Group  string `json:"group,omitempty"`
}

// mustPost posts commands and requires every result queued unless
// tolerate is set.
func mustPost(t *testing.T, base string, shard int, cmds []wireCmd, tolerate bool) {
	t.Helper()
	body, err := json.Marshal(cmds)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/shards/%d/commands", base, shard), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard %d commands: %d", shard, resp.StatusCode)
	}
	var results []struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Status != "queued" && !tolerate {
			t.Fatalf("shard %d command %d (%+v): %s (%s)", shard, i, cmds[i], r.Status, r.Reason)
		}
	}
}

func mustAdvance(t *testing.T, base string, shard int, slots int) {
	t.Helper()
	body := fmt.Sprintf(`{"slots":%d}`, slots)
	resp, err := http.Post(fmt.Sprintf("%s/v1/shards/%d/advance", base, shard), "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard %d advance: %d", shard, resp.StatusCode)
	}
}

// driveWorkload produces a nontrivial applied log on every shard: mixed
// joins (some grouped), reweights, leaves, and — on shard 0 — a
// deferred join provoked by a reweight-down whose scheduling weight has
// not yet decayed.
func driveWorkload(t *testing.T, base string, shards int) {
	t.Helper()
	for s := 0; s < shards; s++ {
		mustPost(t, base, s, []wireCmd{
			{Op: "join", Task: fmt.Sprintf("s%d-A", s), Weight: "1/2"},
			{Op: "join", Task: fmt.Sprintf("s%d-B", s), Weight: "1/4", Group: "grp"},
			{Op: "join", Task: fmt.Sprintf("s%d-C", s), Weight: "1/8"},
		}, false)
		mustAdvance(t, base, s, 1)
		mustPost(t, base, s, []wireCmd{
			{Op: "reweight", Task: fmt.Sprintf("s%d-A", s), Weight: "1/64"},
			{Op: "reweight", Task: fmt.Sprintf("s%d-B", s), Weight: "5/64"},
		}, false)
		mustAdvance(t, base, s, 2)
		mustPost(t, base, s, []wireCmd{
			{Op: "leave", Task: fmt.Sprintf("s%d-C", s)},
			{Op: "reweight", Task: fmt.Sprintf("s%d-A", s), Weight: "3/64"},
		}, false)
		mustAdvance(t, base, s, 1)
	}
	// Shard 0: reweight down and immediately join close to requested
	// capacity; the join is admitted on requested weight but can only
	// apply once the old scheduling weight decays (condition J).
	mustPost(t, base, 0, []wireCmd{
		{Op: "reweight", Task: "s0-B", Weight: "1/64"},
		{Op: "join", Task: "s0-D", Weight: "1/2"},
	}, false)
	// Drain generously so every deferred command applies.
	for i := 0; i < 8; i++ {
		mustAdvance(t, base, 0, 1)
	}
}

// TestRecordReplayDifferential is the end-to-end witness: record a
// driven run, replay the trace against a fresh daemon with the same
// config, and require byte-identical per-shard state digests.
func TestRecordReplayDifferential(t *testing.T) {
	cfg := serve.ShardConfig{M: 1}
	const shards = 2
	base := startDaemon(t, shards, cfg)
	driveWorkload(t, base, shards)

	client := &http.Client{}
	tr, err := workgen.Record(client, base, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Shards) != shards {
		t.Fatalf("recorded %d shards, want %d", len(tr.Shards), shards)
	}
	for i := range tr.Shards {
		if len(tr.Shards[i].Log) == 0 {
			t.Fatalf("shard %d recorded an empty log", tr.Shards[i].Shard)
		}
	}

	// The trace round-trips through its file encoding before replay, so
	// the differential covers the codec too.
	enc, err := tr.EncodeToBytes()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := workgen.DecodeTrace(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}

	fresh := startDaemon(t, shards, cfg)
	results, err := workgen.Replay(client, fresh, decoded)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != shards {
		t.Fatalf("replayed %d shards, want %d", len(results), shards)
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("shard %d: digest %016x, recorded %016x", r.Shard, r.Digest, r.Want)
		}
		if r.Digest != decoded.Shards[r.Shard].Digest {
			t.Errorf("shard %d: result digest %016x disagrees with trace %016x", r.Shard, r.Digest, decoded.Shards[r.Shard].Digest)
		}
	}

	// Replaying onto the now-dirty daemon must refuse: replay targets
	// fresh state only.
	if _, err := workgen.Replay(client, fresh, decoded); err == nil {
		t.Error("second replay onto a dirty daemon succeeded")
	}
}

// TestReplayDetectsTamper flips a recorded digest and requires the
// replay to report the mismatch as an error.
func TestReplayDetectsTamper(t *testing.T) {
	cfg := serve.ShardConfig{M: 1}
	base := startDaemon(t, 1, cfg)
	mustPost(t, base, 0, []wireCmd{{Op: "join", Task: "A", Weight: "1/4"}}, false)
	mustAdvance(t, base, 0, 2)

	client := &http.Client{}
	tr, err := workgen.Record(client, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Shards[0].Digest ^= 1

	fresh := startDaemon(t, 1, cfg)
	results, err := workgen.Replay(client, fresh, tr)
	if err == nil {
		t.Fatal("tampered digest replayed without error")
	}
	if len(results) != 1 || results[0].Match {
		t.Fatalf("tampered replay results: %+v", results)
	}
}

// TestReplayConfigMismatch requires replay to refuse a daemon whose
// shard config differs from the recorded one.
func TestReplayConfigMismatch(t *testing.T) {
	base := startDaemon(t, 1, serve.ShardConfig{M: 2})
	mustPost(t, base, 0, []wireCmd{{Op: "join", Task: "A", Weight: "1/4"}}, false)
	mustAdvance(t, base, 0, 1)

	client := &http.Client{}
	tr, err := workgen.Record(client, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := startDaemon(t, 1, serve.ShardConfig{M: 4})
	if _, err := workgen.Replay(client, other, tr); err == nil {
		t.Error("replay against a mismatched M succeeded")
	}
}

// TestRecordKeepsShardConfig records from a daemon with a non-default
// config and requires every config field to survive Record,
// EncodeToBytes and DecodeTrace. A replay cannot catch a dropped field:
// the replay daemon runs its own config, and Replay compares only m and
// policy. Record copies nothing field by field, so this test is what
// pins the field names the snapshot and the trace share.
func TestRecordKeepsShardConfig(t *testing.T) {
	cfg := serve.ShardConfig{M: 2, Policy: "hybrid", OIThreshold: frac.New(1, 16), EarlyRelease: true, RecordSchedule: true}
	base := startDaemon(t, 1, cfg)
	mustPost(t, base, 0, []wireCmd{
		{Op: "join", Task: "A", Weight: "1/2"},
		{Op: "join", Task: "B", Weight: "1/4", Group: "grp"},
		{Op: "join", Task: "C", Weight: "1/8"},
	}, false)
	mustAdvance(t, base, 0, 1)
	// Under early release an underloaded task runs ahead of its windows,
	// so rule L holds a later leave back; C leaves before it gets ahead.
	mustPost(t, base, 0, []wireCmd{
		{Op: "reweight", Task: "B", Weight: "9/32"}, // within the threshold: rules O/I
		{Op: "reweight", Task: "A", Weight: "1/8"},  // past it: leave/join
		{Op: "leave", Task: "C"},
	}, false)
	for i := 0; i < 8; i++ {
		mustAdvance(t, base, 0, 1)
	}

	client := &http.Client{}
	tr, err := workgen.Record(client, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tr.EncodeToBytes()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := workgen.DecodeTrace(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.Shards[0].Config
	if got.M != cfg.M || got.Policy != cfg.Policy || got.OIThreshold != cfg.OIThreshold ||
		got.EarlyRelease != cfg.EarlyRelease || got.RecordSchedule != cfg.RecordSchedule {
		t.Fatalf("trace config %+v, daemon config %+v", got, cfg)
	}
	ops := map[core.CommandOp]int{}
	grouped := false
	for _, c := range decoded.Shards[0].Log {
		ops[c.Op]++
		grouped = grouped || c.Group != ""
	}
	if ops[core.OpJoin] != 3 || ops[core.OpReweight] != 2 || ops[core.OpLeave] != 1 || !grouped {
		t.Fatalf("recorded log %v lost commands (grouped join: %v)", decoded.Shards[0].Log, grouped)
	}

	results, err := workgen.Replay(client, startDaemon(t, 1, cfg), decoded)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != 1 || !results[0].Match {
		t.Fatalf("replay results: %+v", results)
	}
}

// TestGoldenVersion2Replays: testdata/golden.json stays a version-2
// trace, written before leaves waited for rule L in the engine. It
// still decodes, and each shard still replays on a fresh daemon of its
// config: every logged command is re-admitted at its slot, including
// the leave. Shard 0's digest is a placeholder (0xdeadbeef), so only
// the digest verdict may fail.
func TestGoldenVersion2Replays(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden, err := workgen.DecodeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range golden.Shards {
		if st.Version != 2 {
			t.Fatalf("golden shard %d is version %d, want 2", st.Shard, st.Version)
		}
		cfg := serve.ShardConfig{M: st.Config.M, Policy: st.Config.Policy, OIThreshold: st.Config.OIThreshold,
			EarlyRelease: st.Config.EarlyRelease, RecordSchedule: st.Config.RecordSchedule}
		fresh := startDaemon(t, st.Shard+1, cfg)
		results, err := workgen.Replay(&http.Client{}, fresh, &workgen.Trace{Shards: []workgen.ShardTrace{st}})
		if err != nil && (len(results) != 1 || !strings.Contains(err.Error(), "digest")) {
			t.Fatalf("golden shard %d: %v", st.Shard, err)
		}
		if len(results) != 1 || results[0].Commands != len(st.Log) || results[0].Slots != st.Now {
			t.Fatalf("golden shard %d replayed %+v, want %d commands over %d slots", st.Shard, results, len(st.Log), st.Now)
		}
	}
}
