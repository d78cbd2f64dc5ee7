package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// postJSON posts v (marshalled) and returns the status code and body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// driveSlots posts a deterministic mix of single and batched commands
// against shard 0 and advances one slot each round, starting task names
// at T<base>. Its lone reweights and leaves carry a group, which only a
// join applies.
func driveSlots(t *testing.T, base string, slots int, nameBase int) {
	t.Helper()
	for slot := 0; slot < slots; slot++ {
		n := nameBase + slot
		switch slot % 4 {
		case 0:
			code, body := postJSON(t, base+"/v1/shards/0/commands", CommandRequest{
				Op: "join", Task: fmt.Sprintf("T%d", n), Weight: "1/16",
			})
			if code != http.StatusOK {
				t.Fatalf("slot %d join: %d: %s", slot, code, body)
			}
		case 1:
			// Batched: a join and a reweight of the previous join in one
			// request — the same-slot batch applies atomically.
			code, body := postJSON(t, base+"/v1/shards/0/commands", []CommandRequest{
				{Op: "join", Task: fmt.Sprintf("T%d", n), Weight: "1/32"},
				{Op: "reweight", Task: fmt.Sprintf("T%d", n-1), Weight: "3/32"},
			})
			if code != http.StatusOK {
				t.Fatalf("slot %d batch: %d: %s", slot, code, body)
			}
			var results []CommandResult
			if err := json.Unmarshal(body, &results); err != nil {
				t.Fatalf("slot %d batch decode: %v", slot, err)
			}
			for i, res := range results {
				if res.Status != "queued" {
					t.Fatalf("slot %d batch item %d not queued: %+v", slot, i, res)
				}
			}
		case 2:
			code, body := postJSON(t, base+"/v1/shards/0/commands", CommandRequest{
				Op: "reweight", Task: fmt.Sprintf("T%d", n-1), Weight: "1/8", Group: "g",
			})
			if code != http.StatusOK {
				t.Fatalf("slot %d reweight: %d: %s", slot, code, body)
			}
		case 3:
			code, body := postJSON(t, base+"/v1/shards/0/commands", CommandRequest{
				Op: "leave", Task: fmt.Sprintf("T%d", n-3), Group: "g",
			})
			if code != http.StatusOK {
				t.Fatalf("slot %d leave: %d: %s", slot, code, body)
			}
		}
		if code, body := postJSON(t, base+"/v1/shards/0/advance", AdvanceRequest{Slots: 1}); code != http.StatusOK {
			t.Fatalf("slot %d advance: %d: %s", slot, code, body)
		}
	}
}

// holdJoin makes shard 0 hold two joins for condition J: W1 and W2
// join at 1/2 and reweight down to 1/64 three slots later, and W3 and
// W4 join at 1/2 into the requested weight that freed, before the
// engine's scheduling weight has decayed. It advances four slots.
func holdJoin(t *testing.T, base string) {
	t.Helper()
	send := func(cmds []CommandRequest, slots int64) {
		t.Helper()
		code, body := postJSON(t, base+"/v1/shards/0/commands", cmds)
		var results []CommandResult
		if err := json.Unmarshal(body, &results); code != http.StatusOK || err != nil {
			t.Fatalf("commands %v: %d: %s", cmds, code, body)
		}
		for i, res := range results {
			if res.Status != "queued" {
				t.Fatalf("%v not queued: %+v", cmds[i], res)
			}
		}
		if code, body := postJSON(t, base+"/v1/shards/0/advance", AdvanceRequest{Slots: slots}); code != http.StatusOK {
			t.Fatalf("advance: %d: %s", code, body)
		}
	}
	var joins, downs []CommandRequest
	for _, name := range []string{"W1", "W2"} {
		joins = append(joins, CommandRequest{Op: "join", Task: name, Weight: "1/2"})
		downs = append(downs, CommandRequest{Op: "reweight", Task: name, Weight: "1/64"})
	}
	send(joins, 3)
	send(append(downs,
		CommandRequest{Op: "join", Task: "W3", Weight: "1/2"},
		CommandRequest{Op: "join", Task: "W4", Weight: "1/2"}), 1)
}

// TestHTTPDifferentialAgainstDirectCore is the tentpole's differential
// proof: a shard driven entirely over HTTP — including one full
// snapshot/restore cycle through Server.Stop/Snapshots/New, cut while
// the engine holds a join for condition J — must be byte-identical
// (schedule rows with CPU assignments, misses, drift and lag
// accounting) to a fresh core.Scheduler fed the shard's applied command
// log directly.
func TestHTTPDifferentialAgainstDirectCore(t *testing.T) {
	cfg := ShardConfig{M: 2, RecordSchedule: true}
	srv, err := New(Options{Shards: 2, Config: cfg, MailboxCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())

	driveSlots(t, ts.URL, 12, 0)
	holdJoin(t, ts.URL)
	var held ShardStatus
	getJSON(t, ts.URL+"/v1/shards/0", &held)
	if held.DeferredJoins != 2 || held.DeferredJoinPeak != 2 {
		t.Fatalf("before the cycle: deferred joins %d, peak %d; want W3 and W4 held for condition J",
			held.DeferredJoins, held.DeferredJoinPeak)
	}

	// Cycle: quiesce HTTP, stop shards, snapshot, rebuild, restart.
	ts.Close()
	srv.Stop()
	snaps := srv.Snapshots()
	srv2, err := New(Options{Shards: 2, Config: cfg, MailboxCap: 64, Snapshots: snaps})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	srv2.Start()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Stop()

	driveSlots(t, ts2.URL, 12, 12)

	// The served view of the engine state.
	var state StateResponse
	getJSON(t, ts2.URL+"/v1/shards/0/state", &state)

	// The shard's own account of what it applied.
	var snap Snapshot
	getJSON(t, ts2.URL+"/v1/shards/0/snapshot", &snap)

	// A group reaches the log only on a join.
	nonJoins := 0
	for _, c := range snap.Commands {
		if c.Group != "" {
			t.Fatalf("log records %s with group %q", c, c.Group)
		}
		if c.Op != core.OpJoin {
			nonJoins++
		}
	}
	if nonJoins == 0 {
		t.Fatal("log holds no reweight or leave; the group check would be vacuous")
	}

	// Drive a fresh engine directly with that log.
	ccfg, err := snap.Config.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Replay(ccfg, snap.Seed, snap.Commands, snap.Now)
	if err != nil {
		t.Fatalf("direct replay of served log: %v", err)
	}
	var b strings.Builder
	if err := direct.WriteState(&b); err != nil {
		t.Fatal(err)
	}
	if direct.StateDigest() != state.Digest {
		t.Errorf("digest: direct %016x, served %016x", direct.StateDigest(), state.Digest)
	}
	if b.String() != state.State {
		t.Fatalf("state diverges:\n--- direct ---\n%s--- served ---\n%s", b.String(), state.State)
	}
	if !strings.Contains(state.State, "slot 20:") {
		t.Fatal("served state carries no schedule rows; differential test would be vacuous")
	}

	// The service promised every admitted command applied.
	var st ShardStatus
	getJSON(t, ts2.URL+"/v1/shards/0?tasks=1", &st)
	if st.FailedApplies != 0 {
		t.Fatalf("failed applies: %d", st.FailedApplies)
	}
	if st.Violations != 0 {
		t.Fatalf("engine invariant violations: %d", st.Violations)
	}
	if st.Now != 28 {
		t.Fatalf("clock at %d, want 28", st.Now)
	}
	if st.DeferredJoins != 0 {
		t.Fatalf("%d joins still held", st.DeferredJoins)
	}
	active := 0
	for _, task := range st.Tasks {
		if task.Active && (task.Name == "W3" || task.Name == "W4") {
			active++
		}
	}
	if active != 2 {
		t.Fatalf("%d of W3 and W4 entered after the restore", active)
	}
}
