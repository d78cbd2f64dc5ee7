package cluster

import "repro/internal/serve"

// A Replica is a follower's warm copy of one shard: a serve.Replica
// kept in lockstep by applying every pushed tail. A node touches its
// replicas only under the shard's shardState.mu.
type Replica = serve.Replica

// NewReplica returns an empty replica that accepts only a complete
// (From == 0) tail first.
func NewReplica(shard int) *Replica { return serve.NewReplica(shard) }

// wantIndex returns (index, true) when err is a replication gap.
func wantIndex(err error) (int, bool) {
	if g, ok := err.(serve.GapError); ok {
		return g.Want, true
	}
	return 0, false
}
