// The detflow check: determinism taint must never reach the replayable
// command surface.
//
// The command log is replayed: restore, replication and the
// differential replay tests demand that Apply/ReplayLog/Replay produce
// bit-identical state digests, and ROADMAP item 4(c) will inject a
// wall clock into internal/serve for its stage histograms. That only
// holds if no input to the command surface depends on the wall clock,
// the unseeded global rand source, or map iteration order. The v1 determinism check bans those sources *inside simulator
// packages*; detflow closes the interprocedural gap: a cmd/ tool may
// freely read time.Now for its own reporting, but the moment a function
// that (transitively) reads nondeterministic input also (transitively)
// calls a registered replay sink, that meeting point is reported.
//
// The sinks are registered in replaySinkTable (annotations.go) and
// validated against the type-checked package like every other
// annotation table. Taint does not propagate through dynamic or
// goroutine-spawned edges — the call graph is deliberately
// under-approximate there, a polarity docs/LINT.md documents — and the
// diagnostic is emitted at the *lowest* meeting point so one tainted
// helper does not cascade into a report in every caller above it.
package analysis

import "go/ast"

// DetFlow returns the detflow analyzer.
func DetFlow() *Analyzer {
	return &Analyzer{
		Name: "detflow",
		Doc:  "nondeterministic input (time/rand/map order) must not reach the replayable command surface",
		Run: func(p *Pass) []Diagnostic {
			ip := p.interpFacts()
			diags := append([]Diagnostic(nil), ip.detflowBuckets()[p.Pkg.Path]...)
			validateReplaySinks(p, &diags)
			return diags
		},
	}
}

// validateReplaySinks checks the annotation table entries naming this
// package, so a renamed sink makes the stale entry itself a diagnostic.
func validateReplaySinks(p *Pass, diags *[]Diagnostic) {
	for _, spec := range replaySinkSpecsFor(p.Pkg.Path) {
		for _, f := range spec.Funcs {
			if !hasFuncNamed(p, f) {
				p.reportAtPkg(diags, "detflow",
					"stale replaySinkTable entry: %s declares no function %q", p.Pkg.Path, f)
			}
		}
	}
}

// taintBits orders the taint sources for witness selection; the first
// bit present in a summary is the one reported.
var taintBits = []effect{effTime, effRand, effMapOrder}

// detflowBuckets computes the check once per run, bucketed by package.
func (ip *interp) detflowBuckets() map[string][]Diagnostic {
	if ip.detflow != nil {
		return ip.detflow
	}
	out := make(map[string][]Diagnostic)
	add := func(pkg *Package, n ast.Node, format string, args ...any) {
		pass := &Pass{Pkg: pkg}
		var ds []Diagnostic
		pass.report(&ds, "detflow", n, format, args...)
		out[pkg.Path] = append(out[pkg.Path], ds...)
	}
	ip.detflow = out

	for _, fn := range ip.byQname() {
		taint := fn.eff & taintMask
		if taint == 0 || !(fn.sink || fn.reaches) {
			continue
		}
		// Lowest meeting point: if a direct callee already carries both
		// the taint and the sink, the defect is (or is below) that
		// callee — report there, not in every transitive caller.
		deferred := false
		for _, cs := range fn.calls {
			if cs.dynamic || cs.spawned {
				continue
			}
			if c := ip.fnOf(cs.callee); c != nil && c.eff&taintMask != 0 && (c.sink || c.reaches) {
				deferred = true
				break
			}
		}
		if deferred {
			continue
		}
		var bit effect
		for _, b := range taintBits {
			if taint&b != 0 {
				bit = b
				break
			}
		}
		node, desc := ip.taintWitness(fn, bit)
		if node == nil {
			continue // unreachable: a set bit always has a witness
		}
		if fn.sink {
			add(fn.pkg, node,
				"replay sink %s itself reads nondeterministic input (%s); replayed commands must be bit-for-bit deterministic", fn.short, desc)
			continue
		}
		_, sinkName := ip.sinkWitness(fn)
		add(fn.pkg, node,
			"nondeterministic input (%s) reaches replay sink %s; replayed commands must be bit-for-bit deterministic", desc, sinkName)
	}
	return out
}

// taintWitness picks the deterministic anchor for a taint bit inside
// fn: the intrinsic site when the function reads the source itself,
// otherwise the first call site (in source order) whose callee carries
// the bit.
func (ip *interp) taintWitness(fn *interpFn, bit effect) (ast.Node, string) {
	if fn.intr&bit != 0 {
		s := fn.effSite[bit]
		return s.node, s.desc
	}
	for _, cs := range fn.calls {
		if cs.dynamic || cs.spawned {
			continue
		}
		if c := ip.fnOf(cs.callee); c != nil && c.eff&bit != 0 {
			return cs.call, "call to " + c.short + ", which transitively " + bit.describe()
		}
	}
	return nil, ""
}
