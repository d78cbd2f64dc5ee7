package workgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
)

// Record and Replay speak the daemon's public JSON API with a minimal
// client of their own (see the package comment: sharing internal/serve
// code would let the generator inherit a bug from the system under
// test). Record pulls each shard's snapshot and keeps only the
// replayable part — config, applied log, horizon, digest. Replay drives
// a fresh daemon through the identical slot/command sequence and proves
// the recorded digests reproduce.

// maxReplayBatch bounds commands per POST so a huge slot stays well
// under the server's 1 MiB body limit.
const maxReplayBatch = 256

// maxAdvance bounds slots per advance POST (the server rejects more).
const maxAdvance = 1 << 20

// Record fetches a snapshot from every shard of the daemon at base
// (e.g. "http://127.0.0.1:9470") and decodes each straight into its
// ShardTrace, which drops the snapshot fields replay does not read
// (staged batch, books digest). The daemon keeps running;
// snapshots are read-only. Commands still sitting in a slot batch are
// not yet applied and therefore not part of the trace — record after a
// final advance has flushed them, or the trace ends at the last
// applied state. A join or leave the engine still holds is in the log.
func Record(client *http.Client, base string, shards int) (*Trace, error) {
	if shards < 1 {
		return nil, fmt.Errorf("workgen: record needs shards >= 1, got %d", shards)
	}
	tr := &Trace{Shards: make([]ShardTrace, shards)}
	for s := range tr.Shards {
		st := &tr.Shards[s]
		if err := getJSON(client, fmt.Sprintf("%s/v1/shards/%d/snapshot", base, s), st); err != nil {
			return nil, fmt.Errorf("workgen: record shard %d: %w", s, err)
		}
		if st.Shard != s {
			return nil, fmt.Errorf("workgen: record shard %d: snapshot says shard %d", s, st.Shard)
		}
		// The snapshot omits the default policy; the trace names it, as
		// the shard status Replay compares against does.
		if st.Config.Policy == "" {
			st.Config.Policy = "oi"
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ReplayShardResult reports one shard's replay outcome.
type ReplayShardResult struct {
	Shard    int
	Commands int
	Slots    int64
	// Digest is the fresh daemon's state digest after the replay; Want
	// is the recorded one. Match reports equality.
	Digest uint64
	Want   uint64
	Match  bool
}

// Replay drives the trace against the fresh daemon at base, shard by
// shard: for each recorded slot it posts that slot's commands while the
// shard clock sits on the slot, then advances so the boundary flush
// applies them — reproducing the recorded application order exactly.
// Every command must be re-admitted (a recorded log replays without
// rejection: replay headroom is always at least the original run's),
// and every shard must finish on its recorded digest; the first
// divergence is an error. The per-shard results are returned even on
// digest mismatch so callers can report which shards diverged.
func Replay(client *http.Client, base string, tr *Trace) ([]ReplayShardResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	results := make([]ReplayShardResult, 0, len(tr.Shards))
	mismatch := false
	for i := range tr.Shards {
		res, err := replayShard(client, base, &tr.Shards[i])
		if err != nil {
			return results, err
		}
		results = append(results, res)
		if !res.Match {
			mismatch = true
		}
	}
	if mismatch {
		for _, r := range results {
			if !r.Match {
				return results, fmt.Errorf("workgen: replay shard %d digest %016x, recorded %016x",
					r.Shard, r.Digest, r.Want)
			}
		}
	}
	return results, nil
}

func replayShard(client *http.Client, base string, st *ShardTrace) (ReplayShardResult, error) {
	res := ReplayShardResult{Shard: st.Shard, Commands: len(st.Log), Slots: st.Now, Want: st.Digest}
	// The target shard must be fresh and identically configured, or the
	// digests cannot possibly agree; fail fast with a better message
	// than "mismatch".
	var status struct {
		Now    int64  `json:"now"`
		Policy string `json:"policy"`
		M      int    `json:"m"`
	}
	shardURL := fmt.Sprintf("%s/v1/shards/%d", base, st.Shard)
	if err := getJSON(client, shardURL, &status); err != nil {
		return res, fmt.Errorf("workgen: replay shard %d: %w", st.Shard, err)
	}
	if status.Now != 0 {
		return res, fmt.Errorf("workgen: replay shard %d: target clock at t=%d, need a fresh daemon", st.Shard, status.Now)
	}
	if status.M != st.Config.M || status.Policy != st.Config.Policy {
		return res, fmt.Errorf("workgen: replay shard %d: target is m=%d policy=%s, trace is m=%d policy=%s",
			st.Shard, status.M, status.Policy, st.Config.M, st.Config.Policy)
	}
	now := int64(0)
	i := 0
	for i < len(st.Log) {
		at := int64(st.Log[i].At)
		if err := advanceTo(client, shardURL, &now, at); err != nil {
			return res, fmt.Errorf("workgen: replay shard %d: %w", st.Shard, err)
		}
		j := i
		for j < len(st.Log) && int64(st.Log[j].At) == at {
			j++
		}
		if err := postCommands(client, shardURL, st.Log[i:j]); err != nil {
			return res, fmt.Errorf("workgen: replay shard %d slot %d: %w", st.Shard, at, err)
		}
		i = j
	}
	// The final advance flushes the last slot's batch and lands the
	// clock on the recorded horizon.
	if err := advanceTo(client, shardURL, &now, st.Now); err != nil {
		return res, fmt.Errorf("workgen: replay shard %d: %w", st.Shard, err)
	}
	var state struct {
		Now    int64  `json:"now"`
		Digest uint64 `json:"digest"`
	}
	if err := getJSON(client, shardURL+"/state", &state); err != nil {
		return res, fmt.Errorf("workgen: replay shard %d: %w", st.Shard, err)
	}
	if state.Now != st.Now {
		return res, fmt.Errorf("workgen: replay shard %d: clock ended at t=%d, trace horizon t=%d", st.Shard, state.Now, st.Now)
	}
	res.Digest = state.Digest
	res.Match = state.Digest == st.Digest
	return res, nil
}

// advanceTo moves the shard clock from *now to target via advance
// POSTs, chunked under the server's per-request slot limit.
func advanceTo(client *http.Client, shardURL string, now *int64, target int64) error {
	for *now < target {
		slots := target - *now
		if slots > maxAdvance {
			slots = maxAdvance
		}
		body, err := json.Marshal(struct {
			Slots int64 `json:"slots"`
		}{slots})
		if err != nil {
			return err
		}
		var resp struct {
			Now int64 `json:"now"`
		}
		if err := postJSON(client, shardURL+"/advance", body, &resp); err != nil {
			return fmt.Errorf("advance to t=%d: %w", target, err)
		}
		if resp.Now != *now+slots {
			return fmt.Errorf("advance to t=%d: daemon reports t=%d, expected t=%d", target, resp.Now, *now+slots)
		}
		*now = resp.Now
	}
	return nil
}

// postCommands submits one recorded slot's commands in order, chunked,
// and requires every one of them to be re-admitted.
func postCommands(client *http.Client, shardURL string, cmds []core.Command) error {
	for len(cmds) > 0 {
		n := len(cmds)
		if n > maxReplayBatch {
			n = maxReplayBatch
		}
		reqs := make([]commandReq, n)
		// Validate admitted only wire commands, and only a join carries
		// a group.
		for i := 0; i < n; i++ {
			c := &cmds[i]
			reqs[i] = commandReq{Op: c.Op, Task: c.Task, Group: c.Group}
			if c.Op != core.OpLeave {
				reqs[i].Weight = c.Weight.String()
			}
		}
		body, err := json.Marshal(reqs)
		if err != nil {
			return err
		}
		var results []commandResult
		if err := postJSON(client, shardURL+"/commands", body, &results); err != nil {
			return err
		}
		if len(results) != n {
			return fmt.Errorf("posted %d commands, daemon answered %d results", n, len(results))
		}
		for i, r := range results {
			if r.Status != "queued" {
				return fmt.Errorf("command %d (%s %s) not re-admitted: %s %s (a recorded log must replay cleanly)",
					i, reqs[i].Op, reqs[i].Task, r.Error, r.Reason)
			}
		}
		cmds = cmds[n:]
	}
	return nil
}

// commandReq / commandResult are workgen's own copies of the public
// wire vocabulary (docs/SERVE.md), kept independent of internal/serve.
type commandReq struct {
	Op     core.CommandOp `json:"op"`
	Task   string         `json:"task"`
	Weight string         `json:"weight,omitempty"`
	Group  string         `json:"group,omitempty"`
}

type commandResult struct {
	Status string `json:"status"`
	Code   int    `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// getJSON fetches url and decodes a 200 JSON body into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return decodeReply(resp, url, out)
}

// postJSON posts body to url and decodes a 200 JSON reply into out.
func postJSON(client *http.Client, url string, body []byte, out any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeReply(resp, url, out)
}

func decodeReply(resp *http.Response, url string, out any) error {
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: reading body: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, firstLine(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: decoding reply: %w", url, err)
	}
	return nil
}

// firstLine trims an error body to something printable.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
