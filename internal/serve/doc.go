// Package serve hosts the PD² reweighting engine as a sharded online
// service. It is the serving discipline around internal/core: many
// independent engine shards, each owned by a single-writer goroutine
// that consumes a bounded mailbox of requests, batches same-slot
// mutations, and applies them atomically at the next slot boundary.
//
// The design follows three rules that keep the batch engine's formal
// guarantees intact under concurrent traffic:
//
//   - Single writer. A shard's *core.Scheduler is touched by exactly one
//     goroutine (the shard loop). HTTP handlers never reach the engine;
//     they park a request in the shard's mailbox and wait for the reply.
//     Reads that need the engine (per-task status rows, state dumps,
//     snapshots) flow through the same mailbox, so they observe
//     slot-boundary-consistent state. A plain status read copies the
//     view the loop publishes after every record it answers instead.
//
//   - Admission before mutation. Property (W) — the sum of admitted task
//     weights may not exceed the processor count M — is enforced at the
//     mailbox, not discovered in the engine. A join or reweight that
//     would break (W) is rejected with the exact rational headroom left;
//     an admitted command is guaranteed to apply (the engine holds a
//     join until condition J admits it, in admission order, and a leave
//     until rule L permits it; neither is dropped). The
//     shard's failed-apply counter stays zero by construction; tests
//     assert it.
//
//   - Bounded queues. The mailbox is a fixed-capacity channel. When it
//     is full the handler answers 429 with Retry-After instead of
//     queueing unboundedly — backpressure is explicit and lossless.
//
// Snapshot/restore rides on the engine's determinism: a shard is fully
// described by its seed system plus the log of commands actually
// applied (core.Replay). A Snapshot is a complete Tail, the same unit
// replication ships: it additionally carries the not-yet-applied slot
// batch so a restored shard resumes mid-stream without losing admitted
// work. Shard and Replica hold one state struct and cut tails from it
// with one function; staged work is held as the core.Command records
// the log will hold. Restore applies the snapshot to a fresh Replica,
// which re-verifies the engine-state digest after replay and the batch
// digest, and the restored Shard runs the replica's state with books
// folded from its engine and batch (foldBooks), as every shard's are.
//
// The package is deliberately deterministic (no wall clock, no global
// randomness — enforced by pd2lint): time advances only by explicit
// advance requests or by ticks injected from outside (cmd/pd2d owns the
// wall-clock ticker). docs/SERVE.md documents the wire format.
package serve
