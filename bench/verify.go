package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/frac"
	"repro/internal/serve"
)

// shardFinal is a shard's end state, which a restore must reproduce.
type shardFinal struct {
	now    int64
	digest uint64
}

// finalState is what the checks learn about a drained deployment.
type finalState struct {
	shards []shardFinal
	// Drift, the paper's accuracy measure: each task's largest |drift|
	// over its lifetime, averaged over every task any shard ever held,
	// and the largest of all.
	meanDrift, maxDrift float64
	logLen              int64 // applied commands, all shards
}

// drain advances every shard until no admitted command waits in a slot
// batch or a rule-L/J deferral queue, so the log holds every command.
func drain(base string, shards int) error {
	slots := []byte(`{"slots":1}`)
	for s := 0; s < shards; s++ {
		for i := 0; ; i++ {
			if _, err := postJSON(fmt.Sprintf("%s/v1/shards/%d/advance", base, s), slots); err != nil {
				return err
			}
			var st serve.ShardStatus
			if err := getJSON(fmt.Sprintf("%s/v1/shards/%d", base, s), &st); err != nil {
				return err
			}
			if st.PendingBatch == 0 && st.DeferredJoins == 0 && st.DeferredLeaves == 0 {
				break
			}
			if i == 1000 {
				return fmt.Errorf("shard %d still holds deferred work after %d slots", s, i)
			}
			slots = []byte(`{"slots":16}`)
		}
	}
	return nil
}

// checkShards verifies every drained shard: its full log replays through
// core alone to the digest the shard reports, and its counters show no
// failed apply, invariant violation, deadline miss or rejection.
func checkShards(base string, shards int) (finalState, error) {
	var fs finalState
	var errs []error
	var driftSum float64
	var tasks int
	for s := 0; s < shards; s++ {
		var tail serve.Tail
		if err := getJSON(fmt.Sprintf("%s/v1/shards/%d/log", base, s), &tail); err != nil {
			return fs, err
		}
		if err := verifyLog(&tail); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
		var st serve.ShardStatus
		if err := getJSON(fmt.Sprintf("%s/v1/shards/%d?tasks=1", base, s), &st); err != nil {
			return fs, err
		}
		if err := checkStatus(&st); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
		for _, t := range st.Tasks {
			d, err := frac.Parse(t.MaxAbsDrift)
			if err != nil {
				return fs, fmt.Errorf("shard %d task %s: %w", s, t.Name, err)
			}
			driftSum += d.Float64()
			tasks++
		}
		fs.shards = append(fs.shards, shardFinal{now: tail.Now, digest: tail.Digest})
		fs.maxDrift = max(fs.maxDrift, st.MaxAbsDriftFloat)
		fs.logLen += st.Applied
	}
	if tasks > 0 {
		fs.meanDrift = driftSum / float64(tasks)
	}
	return fs, errors.Join(errs...)
}

// verifyLog replays a complete tail on a fresh engine and compares the
// digest with the one the shard stamped on it.
func verifyLog(t *serve.Tail) error {
	got, err := serve.VerifyTail(t)
	if err != nil {
		return fmt.Errorf("log replay: %w", err)
	}
	if got != t.Digest {
		return fmt.Errorf("log replays to digest %016x, shard reports %016x", got, t.Digest)
	}
	return nil
}

// checkStatus requires a clean, drained shard.
func checkStatus(st *serve.ShardStatus) error {
	bad := []struct {
		name string
		v    int64
	}{
		{"failed_applies", st.FailedApplies},
		{"violations", int64(st.Violations)},
		{"misses", st.Misses},
		{"rejected_weight", st.RejectedW},
		{"rejected_other", st.RejectedOther},
		{"backpressured", st.Backpressured},
		{"pending_batch", int64(st.PendingBatch)},
		{"deferred_joins", int64(st.DeferredJoins)},
		{"deferred_leaves", int64(st.DeferredLeaves)},
	}
	var errs []error
	for _, b := range bad {
		if b.v != 0 {
			errs = append(errs, fmt.Errorf("%s = %d, want 0", b.name, b.v))
		}
	}
	return errors.Join(errs...)
}

// awaitRestore polls the restored daemon until every shard answers at
// its pre-shutdown clock.
func awaitRestore(base string, want []shardFinal) error {
	for s, f := range want {
		url := fmt.Sprintf("%s/v1/shards/%d", base, s)
		err := waitFor("restored shard", 120*time.Second, func() error {
			var st serve.ShardStatus
			if err := getJSON(url, &st); err != nil {
				return err
			}
			if st.Now != f.now {
				return fmt.Errorf("shard %d restored at now=%d, want %d", s, st.Now, f.now)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// restoredState reads every shard's clock and digest.
func restoredState(base string, shards int) ([]shardFinal, error) {
	out := make([]shardFinal, shards)
	for s := range out {
		var st serve.StateResponse
		if err := getJSON(fmt.Sprintf("%s/v1/shards/%d/state", base, s), &st); err != nil {
			return nil, err
		}
		out[s] = shardFinal{now: st.Now, digest: st.Digest}
	}
	return out, nil
}

// checkRestored requires the restored shards to equal the shut-down ones.
func checkRestored(pre, post []shardFinal) error {
	if len(pre) != len(post) {
		return fmt.Errorf("restored %d shards, shut down %d", len(post), len(pre))
	}
	var errs []error
	for s := range pre {
		if pre[s] != post[s] {
			errs = append(errs, fmt.Errorf("shard %d restored to (now=%d, digest %016x), shut down at (now=%d, digest %016x)",
				s, post[s].now, post[s].digest, pre[s].now, pre[s].digest))
		}
	}
	return errors.Join(errs...)
}
