// Package analysis implements pd2lint, a stdlib-only static-analysis
// suite that mechanically enforces the invariants the paper's drift
// bounds depend on.
//
// The PD² reweighting theorems (rules O and I, the per-reweight drift
// ≤ 1 quantum bound) are statements about *exact* quantities: weights,
// lags, and group deadlines computed in rational arithmetic on a
// deterministic, replayable slot schedule. A stray float64 comparison,
// an unseeded random source, or an order-dependent map iteration in a
// tie-break path does not fail a unit test — it silently corrupts the
// reproduced figures. This package turns those implicit rules into
// machine-checked ones.
//
// Twelve checks are provided (see docs/LINT.md for the full
// rationale), in four layers:
//
// AST pattern matchers:
//
//   - fracexact:   no float arithmetic/comparison/conversion inside the
//     exact-arithmetic packages (internal/core, internal/agis,
//     internal/frac); reporting boundaries are annotated.
//   - floatcmp:    no ==/!= between floating-point operands anywhere.
//   - determinism: no time.Now/Since/Until, global math/rand, or
//     os.Getenv in simulator packages; no order-sensitive accumulation
//     from map iteration without a following deterministic sort.
//   - errdrop:     no silently dropped error returns in library and
//     command code.
//   - panicdoc:    panics in library packages must carry a message that
//     names the violated invariant (or propagate an error value).
//
// Intraprocedural, on the shared helpers of dataflow.go:
//
//   - heapkey:     heap ordering keys are written only by their owners.
//   - gocapture:   goroutine closures do not race on captured state.
//   - eventexhaust: switches over //lint:exhaustive enums stay total.
//
// Interprocedural, on the run-wide call graph (interp.go):
//
//   - hotalloc:  //lint:noalloc functions are transitively
//     allocation-free, up to //lint:allocok boundaries.
//   - detflow:   no time/rand/map-order taint reaches the registered
//     replay sinks (core.Apply, ReplayLog, WriteState, StateDigest).
//   - lockorder: one global lock-acquisition order, no blocking
//     operation while a lock is held, and no path that returns with a
//     lock still held.
//
// Flow-sensitive, on per-function CFGs (cfg.go):
//
//   - ownxfer: pooled records transfer ownership exactly once per
//     path and never escape unstamped — no use after a record is sent,
//     or freed on any path; no double free; no acquire path that leaks
//     the record; no store outside the owner fields; no sink literal
//     without the reuse stamp (annotations.go's ownerXferTable).
//     lockorder's held-set facts and gocapture's mutex guard run on
//     the same engine, so conditional unlocks, early returns, and
//     loop-carried frees are analyzed path-sensitively.
//
// Diagnostics can be suppressed per line with
//
//	//lint:allow <check>[,<check>...] [reason]
//
// placed on the offending line or the line directly above it, or for a
// whole file with //lint:file-allow <check> [reason]. Everything here
// uses only the standard library (go/parser, go/ast, go/types,
// go/importer), preserving the module's zero-dependency constraint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is a single finding at a source position.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Check   string         `json:"check"`
	Message string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Pass carries everything an analyzer needs to inspect one package:
// the loaded package plus the shared fact cache (functions, exhaustive
// enums) built once per package no matter how many checks run.
type Pass struct {
	Pkg   *Package
	facts *packageFacts
	// interp is the run-wide interprocedural layer (call graph + effect
	// summaries), shared by every pass of one RunChecks invocation so the
	// graph is built once. Nil for a standalone pass; interpFacts()
	// falls back to a single-package graph then.
	interp *interp
}

// report appends a diagnostic for node n.
func (p *Pass) report(diags *[]Diagnostic, check string, n ast.Node, format string, args ...any) {
	pos := p.Pkg.Fset.Position(n.Pos())
	*diags = append(*diags, Diagnostic{
		Pos:     pos,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

// reportAtPkg appends a diagnostic anchored at the package clause of
// the package's first file — used for findings that have no AST node,
// such as stale annotation-table entries.
func (p *Pass) reportAtPkg(diags *[]Diagnostic, check string, format string, args ...any) {
	if len(p.Pkg.Files) == 0 {
		return
	}
	p.report(diags, check, p.Pkg.Files[0].Name, format, args...)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo filters by import path; nil means every package.
	AppliesTo func(pkgPath string) bool
	Run       func(p *Pass) []Diagnostic
}

// All is the full pd2lint suite in reporting order: the five v1
// AST-pattern checks, the three v2 dataflow checks, the three v3
// interprocedural checks built on the call-graph layer (interp.go),
// and the v4 flow-sensitive ownership check built on the CFG layer
// (cfg.go).
func All() []*Analyzer {
	return []*Analyzer{
		FracExact(),
		FloatCmp(),
		Determinism(),
		ErrDrop(),
		PanicDoc(),
		HeapKey(),
		GoCapture(),
		EventExhaust(),
		HotAlloc(),
		DetFlow(),
		LockOrder(),
		OwnXfer(),
	}
}

// ByName resolves a comma-separated list of check names against All.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown check %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: empty check list %q", list)
	}
	return out, nil
}

// Scope lists for the individual checks. Paths are import paths within
// this module. Keep these in sync with docs/LINT.md.
var (
	// exactPkgs compute scheduling state in exact rational arithmetic;
	// float arithmetic inside them voids the drift bounds.
	exactPkgs = []string{
		"repro/internal/core",
		"repro/internal/agis",
		"repro/internal/frac",
	}
	// reportingPkgs are the designated float boundaries (figure output,
	// statistics, Whisper geometry); fracexact never applies there.
	reportingPkgs = []string{
		"repro/internal/stats",
		"repro/internal/expr",
		"repro/internal/whisper",
	}
)

func pathIn(pkgPath string, list []string) bool {
	for _, p := range list {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// isSimulatorPkg reports whether pkgPath is part of the deterministic
// simulator (the root package and everything under internal/ except the
// analysis tooling itself and the reporting boundary's RNG seeding).
func isSimulatorPkg(pkgPath string) bool {
	if pkgPath == "repro" {
		return true
	}
	if !strings.HasPrefix(pkgPath, "repro/internal/") {
		return false
	}
	// The lint tooling is not part of the simulated system.
	return pkgPath != "repro/internal/analysis"
}

// isLibraryPkg reports whether pkgPath holds library (non-main) code.
func isLibraryPkg(pkgPath string) bool {
	return pkgPath == "repro" || strings.HasPrefix(pkgPath, "repro/internal/")
}

// isCheckedPkg reports whether errdrop applies: library code plus the
// command binaries (their writers feed EXPERIMENTS.md artifacts), but
// not the pedagogical examples.
func isCheckedPkg(pkgPath string) bool {
	return isLibraryPkg(pkgPath) || strings.HasPrefix(pkgPath, "repro/cmd/")
}

// RunOptions configures a RunChecksOpts invocation.
type RunOptions struct {
	// IgnoreScope disables per-check AppliesTo filters (used when linting
	// explicit directories such as seeded-violation fixtures).
	IgnoreScope bool
	// StaleSuppress reports //lint:allow and //lint:file-allow directives
	// that suppressed nothing during the run (check "suppress"). Only
	// meaningful when the full suite runs, so it is opt-in via
	// -strict-suppress.
	StaleSuppress bool
}

// RunChecks applies the analyzers to the packages, honouring scope
// filters unless ignoreScope is set, strips suppressed diagnostics,
// and returns the rest sorted by position.
func RunChecks(pkgs []*Package, checks []*Analyzer, ignoreScope bool) []Diagnostic {
	return RunChecksOpts(pkgs, checks, RunOptions{IgnoreScope: ignoreScope})
}

// RunChecksOpts is RunChecks with full options. One Pass (with its
// shared fact cache) is built per package and reused by every analyzer,
// so functions and enum registries are computed once per package.
func RunChecksOpts(pkgs []*Package, checks []*Analyzer, opts RunOptions) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	ip := newInterp(pkgs)
	for _, pkg := range pkgs {
		pass := newPass(pkg)
		pass.interp = ip
		ran := make(map[string]bool)
		for _, a := range checks {
			if !opts.IgnoreScope && a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			ran[a.Name] = true
			for _, d := range a.Run(pass) {
				if pkg.suppressed(d) {
					continue
				}
				diags = append(diags, d)
			}
		}
		if opts.StaleSuppress {
			diags = append(diags, pkg.staleSuppressions(ran, known)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags
}

// ---------------------------------------------------------------------
// Shared type helpers.

// isFloat reports whether t's underlying type is a floating-point basic
// type (or an untyped float constant).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0
}

// exprType returns the recorded type of e, or nil.
func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// pkgFunc reports whether call invokes the package-level function
// pkgPath.name, resolving through the type info (robust to import
// renaming).
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return selectorFromPkg(info, sel, pkgPath) && sel.Sel.Name == name
}

// selectorFromPkg reports whether sel.X names the package with the given
// import path.
func selectorFromPkg(info *types.Info, sel *ast.SelectorExpr, pkgPath string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	return pn.Imported().Path() == pkgPath
}
