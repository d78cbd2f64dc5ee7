package workgen

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/stats"
)

// Pathological client templates. Each template is a deterministic
// command stream (given an RNG) that drives the daemon into one of its
// degradation regimes; internal/serve's pd2d_anomaly_* counters measure
// whether the degradation is graceful. A template may provoke admission
// rejections by design — that is the point of camp and flood — but no
// template may ever cause a failed apply or a violated invariant: an
// admitted command always eventually applies cleanly.

// Template enumerates the pathological client behaviours.
//
//lint:exhaustive ignore=numTemplates -- sentinel counts the templates, it is not one
type Template uint8

const (
	// TemplateReweightStorm hammers one task with abrupt wide-range
	// reweights (1/64 <-> 31/64), the paper's worst-case adaptation
	// pattern: scheduling weight transients pile up and drift is pushed
	// toward its bound, but property (W) holds throughout.
	TemplateReweightStorm Template = iota
	// TemplateChurn cycles join/leave/reweight over a window of
	// short-lived tasks, exercising leaves the engine holds for rule L
	// and the never-reuse-a-name admission rule.
	TemplateChurn
	// TemplateAdmissionCamp fills requested weight to M - 1/64 and then
	// floods joins at 1/32 forever: every one must be rejected with 409
	// and headroom, and the rejection-rate anomaly counter must fire.
	TemplateAdmissionCamp
	// TemplateHeavyFlood joins a fresh task at the maximum light weight
	// (1/2) on every command: the first 2M fill the shard, the rest are
	// rejected. Admitted weight must cap exactly at M.
	TemplateHeavyFlood

	numTemplates // number of templates; keep last
)

// templateNames is indexed by Template and doubles as the CLI spelling.
var templateNames = [numTemplates]string{
	TemplateReweightStorm: "reweight-storm",
	TemplateChurn:         "join-leave-churn",
	TemplateAdmissionCamp: "admission-camp",
	TemplateHeavyFlood:    "heavy-flood",
}

func (t Template) String() string {
	if t < numTemplates {
		return templateNames[t]
	}
	return fmt.Sprintf("Template(%d)", uint8(t))
}

// TemplateNames returns the template names in declaration order.
func TemplateNames() []string {
	return append([]string(nil), templateNames[:]...)
}

// TemplateByName resolves a CLI spelling.
func TemplateByName(name string) (Template, error) {
	for i, n := range templateNames {
		if n == name {
			return Template(i), nil
		}
	}
	return 0, fmt.Errorf("workgen: unknown template %q (templates: %s, %s, %s, %s)",
		name, TemplateReweightStorm, TemplateChurn, TemplateAdmissionCamp, TemplateHeavyFlood)
}

// ExpectsRejections reports whether the template provokes admission
// rejections by design (so a strict audit should tolerate 409s).
func (t Template) ExpectsRejections() bool {
	switch t { // exhaustive: each template declares its rejection contract (eventexhaust)
	case TemplateReweightStorm:
		return false
	case TemplateChurn:
		// Churn stays within its validated weight envelope, but a leave
		// racing a slot boundary can briefly conflict; tolerate 409s.
		return true
	case TemplateAdmissionCamp, TemplateHeavyFlood:
		return true
	default:
		panic(fmt.Sprintf("workgen: unhandled template %d", uint8(t)))
	}
}

// churnWindow bounds the live short-lived tasks a churn stream keeps;
// the validation envelope below depends on it.
const churnWindow = 8

// TemplateStream generates one shard's command stream for a template.
// It is deterministic in (template, rng, prefix) and single-goroutine.
// The caller owns the pacing: emit Setup, advance the shard so the
// setup joins apply, then alternate Next batches with advances, calling
// Advanced after each advance so the stream knows which of its joins
// have been flushed (a join must apply before it can be reweighted or
// left).
type TemplateStream struct {
	t      Template
	rng    *stats.RNG
	prefix string
	m      int
	tasks  int

	step  int      // commands generated so far
	fresh []string // churn tasks joined since the last Advanced
	ready []string // churn tasks whose joins have been flushed
	seq   int      // fresh-name counter
}

// NewTemplateStream validates the (template, m, tasks) envelope and
// builds a stream. prefix namespaces generated task names; distinct
// workers sharing a shard must use distinct prefixes (names are burned
// forever). tasks is the anchor-set size for storm and churn and is
// ignored by camp and flood.
func NewTemplateStream(t Template, rng *stats.RNG, prefix string, m, tasks int) (*TemplateStream, error) {
	if t >= numTemplates {
		return nil, fmt.Errorf("workgen: unknown template %d", uint8(t))
	}
	if m < 1 {
		return nil, fmt.Errorf("workgen: template %s needs m >= 1, got %d", t, m)
	}
	if tasks < 1 {
		return nil, fmt.Errorf("workgen: template %s needs tasks >= 1, got %d", t, tasks)
	}
	switch t { // exhaustive: each template validates its weight envelope (eventexhaust)
	case TemplateReweightStorm:
		// Anchors at 1/64 plus the storm task at up to 31/64 must fit M.
		if tasks+30 > 64*m {
			return nil, fmt.Errorf("workgen: template %s with %d tasks exceeds m=%d (needs tasks <= 64m-30)", t, tasks, m)
		}
	case TemplateChurn:
		// Anchors plus the churn window (joins at 2/64, plus as many
		// leaves still counted until their flush) must fit M.
		if tasks+4*churnWindow > 64*m {
			return nil, fmt.Errorf("workgen: template %s with %d tasks exceeds m=%d (needs tasks <= 64m-%d)",
				t, tasks, m, 4*churnWindow)
		}
	case TemplateAdmissionCamp, TemplateHeavyFlood:
		// Camp derives its set from m; flood is all fresh joins.
	default:
		panic(fmt.Sprintf("workgen: unhandled template %d", uint8(t)))
	}
	return &TemplateStream{t: t, rng: rng, prefix: prefix, m: m, tasks: tasks}, nil
}

// sixtyFourths builds num/64 in lowest terms.
func sixtyFourths(num int64) frac.Rat { return frac.New(num, 64) }

// Setup appends the template's initial joins to dst. The caller must
// advance the shard once after posting them (joins apply at the next
// slot boundary) before asking for Next batches.
func (ts *TemplateStream) Setup(dst []core.Command) []core.Command {
	switch ts.t { // exhaustive: per-template setup (eventexhaust)
	case TemplateReweightStorm, TemplateChurn:
		for i := 0; i < ts.tasks; i++ {
			dst = append(dst, core.Command{Op: core.OpJoin, Task: ts.anchor(i), Weight: sixtyFourths(1)})
		}
	case TemplateAdmissionCamp:
		// 2M-1 campers at 1/2 and one at 31/64: requested weight lands on
		// M - 1/64, so nothing at or above 1/32 can ever join again.
		for i := 0; i < 2*ts.m-1; i++ {
			dst = append(dst, core.Command{Op: core.OpJoin, Task: ts.anchor(i), Weight: frac.Half})
		}
		dst = append(dst, core.Command{Op: core.OpJoin, Task: ts.anchor(2*ts.m - 1), Weight: sixtyFourths(31)})
	case TemplateHeavyFlood:
		// No setup: the flood itself fills the shard.
	default:
		panic(fmt.Sprintf("workgen: unhandled template %d", uint8(ts.t)))
	}
	return dst
}

// Next appends n generated commands to dst.
func (ts *TemplateStream) Next(dst []core.Command, n int) []core.Command {
	for i := 0; i < n; i++ {
		dst = ts.one(dst)
		ts.step++
	}
	return dst
}

func (ts *TemplateStream) one(dst []core.Command) []core.Command {
	switch ts.t { // exhaustive: per-template generation (eventexhaust)
	case TemplateReweightStorm:
		// Slam the storm task back and forth across the light-weight
		// range; odd steps land on a jittered low target so consecutive
		// swings differ.
		target := sixtyFourths(31)
		if ts.step%2 == 1 {
			target = sixtyFourths(1 + int64(ts.rng.Bounded(4)))
		}
		return append(dst, core.Command{Op: core.OpReweight, Task: ts.anchor(0), Weight: target})
	case TemplateChurn:
		switch ts.step % 3 {
		case 0:
			if len(ts.fresh)+len(ts.ready) < churnWindow {
				return ts.churnJoin(dst)
			}
			return ts.churnLeave(dst)
		case 1:
			if len(ts.ready) > 0 {
				return ts.churnLeave(dst)
			}
			return ts.churnJoin(dst)
		default:
			a := ts.anchor(ts.rng.Bounded(ts.tasks))
			return append(dst, core.Command{Op: core.OpReweight, Task: a, Weight: sixtyFourths(1 + int64(ts.rng.Bounded(2)))})
		}
	case TemplateAdmissionCamp:
		// The shard is camped at M - 1/64; every 1/32 join must bounce.
		return append(dst, core.Command{Op: core.OpJoin, Task: ts.freshName(), Weight: frac.New(1, 32)})
	case TemplateHeavyFlood:
		return append(dst, core.Command{Op: core.OpJoin, Task: ts.freshName(), Weight: frac.Half})
	default:
		panic(fmt.Sprintf("workgen: unhandled template %d", uint8(ts.t)))
	}
}

func (ts *TemplateStream) churnJoin(dst []core.Command) []core.Command {
	if len(ts.fresh)+len(ts.ready) >= churnWindow {
		// Window full and nothing ready to leave: skip to a reweight so
		// the envelope bound holds unconditionally.
		a := ts.anchor(ts.rng.Bounded(ts.tasks))
		return append(dst, core.Command{Op: core.OpReweight, Task: a, Weight: sixtyFourths(1 + int64(ts.rng.Bounded(2)))})
	}
	name := ts.freshName()
	ts.fresh = append(ts.fresh, name)
	return append(dst, core.Command{Op: core.OpJoin, Task: name, Weight: sixtyFourths(2)})
}

func (ts *TemplateStream) churnLeave(dst []core.Command) []core.Command {
	if len(ts.ready) == 0 {
		return ts.churnJoin(dst)
	}
	name := ts.ready[0]
	ts.ready = ts.ready[1:]
	return append(dst, core.Command{Op: core.OpLeave, Task: name})
}

// Advanced tells the stream the shard advanced a slot boundary: every
// join posted before the advance has been flushed (or queued for
// deferred application — either way its admission entry exists and is
// no longer pending), so those tasks may now be left.
func (ts *TemplateStream) Advanced() {
	ts.ready = append(ts.ready, ts.fresh...)
	ts.fresh = ts.fresh[:0]
}

func (ts *TemplateStream) anchor(i int) string {
	return ts.prefix + "-a" + strconv.Itoa(i)
}

func (ts *TemplateStream) freshName() string {
	name := ts.prefix + "-c" + strconv.Itoa(ts.seq)
	ts.seq++
	return name
}
