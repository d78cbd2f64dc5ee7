// Package cluster turns a set of pd2d processes into one multi-node
// deployment: a coordinator assigns each shard a primary and followers
// by rendezvous hashing (rendezvous.go), every node hosts a serve
// server with all shards and wraps it in routing/replication middleware
// (node.go), primaries stream their applied command log to followers as
// serve.Tail deltas, which each follower applies to a warm
// serve.Replica (repl.go), and shards move between nodes by
// snapshot-stream + log-tail-replay with a digest check before the
// routing table flips (migration in repl.go, orchestrated by
// coordinator.go). This package holds only the protocol: the tail
// format, its replay and its digest checks live in internal/serve.
//
// docs/CLUSTER.md is the normative protocol description; keep the two
// in sync.
package cluster
