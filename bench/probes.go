package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
)

// probeReps is how many times each public function is timed; the probe
// reports the median.
const probeReps = 200

// timeP50 runs fn reps times and returns the median duration in ns.
func timeP50(reps int, fn func() error) (float64, error) {
	var h Hist
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		h.Record(int64(time.Since(t0)))
	}
	return float64(h.Quantile(0.5)), nil
}

// probe times the layers' public functions once the load has ended,
// against shard 0 of the server holding the primary, whose log is the
// run's own.
func probe(srv *serve.Server) (map[string]float64, error) {
	out := make(map[string]float64)
	full, err := srv.ShardTail(0, 0)
	if err != nil {
		return nil, err
	}
	cmds := full.Commands
	n := len(cmds)
	if n < 2 {
		return nil, fmt.Errorf("shard 0 log holds %d commands; the probes need 2", n)
	}

	// The replication cut of the newest command, and its wire form.
	var one *serve.Tail
	if out["serve.tail_us"], err = timeP50(probeReps, func() error {
		one, err = srv.ShardTail(0, n-1)
		return err
	}); err != nil {
		return nil, err
	}
	var wire []byte
	if out["cluster.tail_encode_us"], err = timeP50(probeReps, func() error {
		wire, err = json.Marshal(one)
		return err
	}); err != nil {
		return nil, err
	}
	out["cluster.tail_bytes"] = float64(len(wire))

	// The engine, rebuilt from the log.
	cfg, err := full.Config.CoreConfig()
	if err != nil {
		return nil, err
	}
	//lint:allow detflow the replay is timed; no clock value reaches a replayed command
	t0 := time.Now()
	eng, err := core.Replay(cfg, full.Seed, cmds, full.Now)
	if err != nil {
		return nil, err
	}
	out["core.replay_ns_per_cmd"] = float64(time.Since(t0)) / float64(n)
	if out["core.digest_us"], err = timeP50(probeReps, func() error {
		_ = eng.StateDigest()
		return nil
	}); err != nil {
		return nil, err
	}
	if out["core.step_us"], err = timeP50(probeReps, func() error {
		eng.Step()
		return nil
	}); err != nil {
		return nil, err
	}

	// A warm follower replica taking one-command tails: the replica
	// holds the log up to b, then each tail carries the next command and
	// the digest a shadow engine reaches after it.
	k := min(probeReps, n-1)
	b := n - k
	shadow, err := core.Replay(cfg, full.Seed, cmds[:b], cmds[b].At)
	if err != nil {
		return nil, err
	}
	warm := *full
	warm.Total, warm.Now, warm.Commands, warm.Digest = b, cmds[b].At, cmds[:b], shadow.StateDigest()
	rep := cluster.NewReplica(0)
	if err := rep.Apply(&warm); err != nil {
		return nil, err
	}
	var h Hist
	for i := b; i < n; i++ {
		now := full.Now
		if i+1 < n {
			now = cmds[i+1].At
		}
		if err := shadow.ReplayLog(cmds[i:i+1], now); err != nil {
			return nil, err
		}
		t := *full
		t.From, t.Total, t.Now, t.Commands, t.Digest = i, i+1, now, cmds[i:i+1], shadow.StateDigest()
		t0 := time.Now()
		if err := rep.Apply(&t); err != nil {
			return nil, err
		}
		h.Record(int64(time.Since(t0)))
	}
	out["cluster.replica_apply_us"] = float64(h.Quantile(0.5))

	for _, name := range []string{"serve.tail_us", "cluster.tail_encode_us", "core.digest_us", "core.step_us", "cluster.replica_apply_us"} {
		out[name] /= 1e3 // ns to µs
	}
	return out, nil
}
