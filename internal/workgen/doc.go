// Package workgen is the workload layer for pd2d: temporal load shapes,
// pathological client templates, and replayable traces.
//
// The three pieces close the scenario-diversity gap between the
// closed-loop uniform generator in cmd/pd2load and the abrupt,
// wide-dynamic-range reweighting the paper analyzes:
//
//   - Shapes (shape.go) compose named phase segments into multi-period
//     temporal load curves (diurnal, ramp, spike, sine, flash-crowd).
//     Each phase modulates the command rate, the reweight magnitude,
//     and the join/leave churn probability of whatever generator
//     consults it.
//
//   - Templates (template.go) are deliberately-pathological client
//     behaviours — a reweight storm on one task, join/leave churn,
//     admission-limit camping, an all-heavy flood — that drive the
//     daemon into its degradation regimes. internal/serve's anomaly
//     counters (pd2d_anomaly_*) prove the degradation is graceful:
//     rejections rise, drift bounds hold, failed applies stay zero.
//
//   - Traces (trace.go, record.go) make every run a regression test:
//     Record keeps each shard's snapshot, cut down to its config, its
//     exact applied command log (op, task, weight, issue-slot), horizon
//     and digest, and Replay drives the log deterministically against a
//     fresh daemon, verifying byte-identical core.StateDigest per shard.
//
// Shape and template streams emit core.Command records with only Op —
// join, leave or reweight, the daemon's wire vocabulary — Task and
// Weight set; the daemon stamps the slot.
//
// The package deliberately shares no code with internal/serve: it
// speaks the daemon's public JSON API with its own minimal client, so
// the generator cannot inherit a bug from the system under test.
package workgen
