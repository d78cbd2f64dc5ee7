package bench

import (
	"fmt"
	"time"
)

// A Workload is one traffic mix against one deployment shape. Rates and
// counts are sized for a 2-core machine; one run of every workload takes
// about two minutes. All request streams derive from the run's seed.
type Workload struct {
	Name string
	Why  string

	// Deployment. Cluster runs pd2cluster with three pd2d nodes serving
	// one shard with two followers; otherwise one pd2d serves Shards.
	Cluster bool
	Shards  int
	M       int
	Policy  string // pd2d -policy; hybrid keeps pd2d's threshold of 1/8

	// Traffic. Tasks is the per-shard population joined during set-up.
	// Churn streams join, leave and reweight (see churnGen); the others
	// only reweight between 1/64 and 2/64. Batch is the command count of
	// one write request; a connection advances a shard after every
	// AdvanceEvery of its writes to it; every ReadEvery-th request on a
	// connection is a status read.
	Tasks        int
	Churn        bool
	Batch        int
	AdvanceEvery int
	ReadEvery    int

	// Phases. The open loop sends Rate requests/s (both connections
	// together) for half the run's duration, in one window a round; in
	// each round a closed-loop capacity chunk then sends CapRequests
	// requests, pipeline in flight per connection. The reference gets
	// the same requests for the other half. Rate is about a tenth of
	// capacity: a fixed rate moves toward saturation as the host slows,
	// and latency grows faster than the slowdown once requests queue,
	// which no ratio to the reference undoes (at 4000 requests/s
	// node-mixed's write p50 went from 1.2 to 2.6 times the reference's
	// while the host ran three times slower).
	Rate        int
	CapRequests int
}

// pipeline is the capacity phase's requests in flight per connection.
const pipeline = 8

// Workloads is the benchmark's catalogue; BENCHMARK.json names the same
// set (TestBenchmarkJSONMatches keeps the two in step).
var Workloads = []*Workload{
	{
		Name:   "node-batch32",
		Why:    "32-command writes amortize HTTP, so codec, admission and engine cost per command dominate; the long log shows GC and memory",
		Shards: 4, M: 4, Policy: "oi", Tasks: 64,
		Batch: 32, AdvanceEvery: 8, ReadEvery: 5,
		Rate: 600, CapRequests: 1000,
	},
	{
		Name:   "node-mixed",
		Why:    "one command per request with every 5th a status read, so HTTP parsing and the shard mailbox hop dominate",
		Shards: 4, M: 4, Policy: "oi", Tasks: 16,
		Batch: 1, AdvanceEvery: 8, ReadEvery: 5,
		Rate: 1500, CapRequests: 6000,
	},
	{
		Name:    "cluster-write",
		Why:     "replicated single-command writes from two writers to one primary with two followers, so replication dominates",
		Cluster: true, Shards: 1, M: 16, Policy: "oi", Tasks: 256,
		Batch: 1, AdvanceEvery: 8, ReadEvery: 2,
		Rate: 60, CapRequests: 150,
	},
	{
		Name:   "churn-restore",
		Why:    "joins, leaves and small and large reweights under the hybrid policy, then a snapshot restart, so restore cost tracks history",
		Shards: 4, M: 4, Policy: "hybrid", Tasks: 8,
		Churn: true, Batch: 16, AdvanceEvery: 4, ReadEvery: 5,
		Rate: 1000, CapRequests: 2000,
	},
}

// WorkloadByName looks a workload up in the catalogue.
func WorkloadByName(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Conns is the number of load connections: two, each owning the shards
// congruent to its index mod 2. On the one-shard cluster both write the
// same shard, on purpose, so concurrent writers contend for it.
const Conns = 2

// ownedShards lists the shards connection c writes.
func (w *Workload) ownedShards(c int) []int {
	if w.Shards == 1 {
		return []int{0}
	}
	var out []int
	for s := c; s < w.Shards; s += Conns {
		out = append(out, s)
	}
	return out
}

// openRequests is the open-loop request count per connection for a run
// of the given length.
func (w *Workload) openRequests(d time.Duration) int {
	return int(float64(w.Rate) * d.Seconds() / Conns)
}
