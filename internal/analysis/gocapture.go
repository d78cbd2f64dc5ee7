// The gocapture check: goroutine closures may not mutate shared
// captured state without a synchronization guard.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// GoCapture flags data races latent in `go func() { ... }()` closures:
//
//  1. a write inside the goroutine to a variable captured from the
//     spawning function, unless the write is under a mutex held inside
//     the closure, targets a distinct element through a closure-local
//     index (the worker-pool `results[i] = ...` idiom), or targets a
//     variable rebound per iteration by the loop that spawns the
//     goroutine (Go 1.22 loop-variable semantics);
//  2. a write by the spawner, lexically after the `go` statement, to a
//     variable the goroutine captures, unless a WaitGroup.Wait()
//     barrier sits between spawn and write or the write is under a
//     mutex.
//
// The targets are internal/expr's worker pools: every per-scheme slice
// must be filled through the index idiom or joined behind Wait before
// the spawner aggregates it, or the 61-run experiment streams stop
// being replayable. Both rules are intraprocedural (documented in
// docs/LINT.md): the mutex guard is a must-held lock flow on the CFG of
// the spawner or the closure body, while spawn order and Wait barriers
// are compared by source position. Suppression is the escape hatch for
// protocols the analysis cannot see.
func GoCapture() *Analyzer {
	return &Analyzer{
		Name:      "gocapture",
		Doc:       "goroutine closures mutate captured state only via sync guards, per-iteration bindings, or closure-local indices; spawner writes after spawn need a Wait barrier",
		AppliesTo: isCheckedPkg,
		Run:       runGoCapture,
	}
}

// goSpawn is one `go func(...) { ... }(...)` statement.
type goSpawn struct {
	stmt *ast.GoStmt
	lit  *ast.FuncLit
	// captures: objects declared in the enclosing function (outside the
	// closure) that the closure reads or writes.
	captures map[types.Object]bool
	// loop is the innermost for/range statement containing the spawn
	// (nil if not spawned from a loop).
	loop ast.Stmt
}

func runGoCapture(p *Pass) []Diagnostic {
	var diags []Diagnostic
	info := p.Pkg.Info
	for _, fi := range p.Funcs() {
		body := fi.Decl.Body
		spawns := collectSpawns(body, info)
		if len(spawns) == 0 {
			continue
		}
		outerGuard := guardedWrites(p.Pkg.funcCFG(fi.Decl), info)
		waits := waitBarriers(body, info, spawns)

		// Rule 1: writes inside each goroutine to captured variables.
		for _, g := range spawns {
			innerGuard := guardedWrites(buildCFG(g.lit.Body, info), info)
			seen := make(map[ast.Node]bool)
			ast.Inspect(g.lit.Body, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				default:
					return true
				}
				for _, lhs := range targets {
					obj := writtenObj(info, lhs)
					if obj == nil || !g.captures[obj] {
						continue
					}
					if innerGuard[n] {
						continue // guarded inside the closure
					}
					if indexedByClosureLocal(info, lhs, g.lit) {
						continue // results[i] worker-pool idiom
					}
					if g.loop != nil && within(obj.Pos(), g.loop) {
						continue // per-iteration binding (Go 1.22)
					}
					if seen[n] {
						continue
					}
					seen[n] = true
					p.report(&diags, "gocapture", lhs,
						"goroutine closure writes captured variable %s without a sync guard; pass it by channel, guard with a mutex, or write through a closure-local index", obj.Name())
				}
				return true
			})
		}

		// Rule 2: spawner writes after spawn to captured variables.
		type key struct {
			obj types.Object
			pos token.Pos
		}
		reported := make(map[key]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && isSpawnLit(lit, spawns) {
				return false // rule 1 territory
			}
			var targets []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				targets = n.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{n.X}
			default:
				return true
			}
			for _, lhs := range targets {
				obj := writtenObj(info, lhs)
				if obj == nil {
					continue
				}
				pos := lhs.Pos()
				if outerGuard[n] {
					continue
				}
				for _, g := range spawns {
					if !g.captures[obj] || pos <= g.stmt.End() {
						continue
					}
					if barrierBetween(waits, g.stmt.End(), pos) {
						continue
					}
					k := key{obj, pos}
					if reported[k] {
						continue
					}
					reported[k] = true
					p.report(&diags, "gocapture", lhs,
						"write to %s after spawning a goroutine that captures it, with no WaitGroup barrier between; join the workers with Wait before mutating shared state", obj.Name())
				}
			}
			return true
		})
	}
	return diags
}

// guardedWrites returns the assignments and inc/dec statements of g's
// body that run while a sync lock is held on every path reaching them:
// a must-held lock flow, keyed by the locked expression. Statements
// inside a function literal inherit the locks held where the literal
// is written.
func guardedWrites(g *cfg, info *types.Info) map[ast.Node]bool {
	apply := func(n ast.Node, held map[string]bool) {
		walkEvaluated(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				return false // runs when invoked, or at return
			case *ast.CallExpr:
				switch lockCallKind(m, info) {
				case "Lock", "RLock":
					held[types.ExprString(m.Fun.(*ast.SelectorExpr).X)] = true
				case "Unlock", "RUnlock":
					delete(held, types.ExprString(m.Fun.(*ast.SelectorExpr).X))
				}
			}
			return true
		})
	}
	in, reached := solveForward(g, flowFns[map[string]bool]{
		init:  map[string]bool{},
		clone: maps.Clone[map[string]bool],
		join: func(dst, src map[string]bool) (map[string]bool, bool) {
			n := len(dst)
			maps.DeleteFunc(dst, func(k string, _ bool) bool { return !src[k] })
			return dst, len(dst) != n
		},
		transfer: func(b *cfgBlock, held map[string]bool) map[string]bool {
			for _, n := range b.nodes {
				apply(n, held)
			}
			return held
		},
	})
	guarded := make(map[ast.Node]bool)
	for _, b := range g.blocks {
		if !reached[b.id] {
			continue
		}
		held := maps.Clone(in[b.id])
		for _, n := range b.nodes {
			if len(held) > 0 {
				walkEvaluated(n, func(m ast.Node) bool {
					switch m.(type) {
					case *ast.AssignStmt, *ast.IncDecStmt:
						guarded[m] = true
					}
					return true
				})
			}
			apply(n, held)
		}
	}
	return guarded
}

// collectSpawns finds every `go func(){...}(...)` in body and computes
// each closure's captured-object set and enclosing loop.
func collectSpawns(body *ast.BlockStmt, info *types.Info) []*goSpawn {
	var spawns []*goSpawn
	var loops []ast.Stmt
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
			for _, l := range nestedStmtLists(n.(ast.Stmt)) {
				for _, st := range l {
					ast.Inspect(st, visit)
				}
			}
			loops = loops[:len(loops)-1]
			return false
		case *ast.GoStmt:
			lit, ok := unparen(n.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			g := &goSpawn{stmt: n, lit: lit, captures: make(map[types.Object]bool)}
			if len(loops) > 0 {
				g.loop = loops[len(loops)-1]
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj := identObj(info, id)
				v, isVar := obj.(*types.Var)
				if !isVar || v.IsField() {
					return true
				}
				// Captured: declared in the enclosing function but not
				// inside the closure itself (params and locals are not
				// captures), and not package-scope.
				if within(obj.Pos(), body) && !within(obj.Pos(), lit) {
					g.captures[obj] = true
				}
				return true
			})
			spawns = append(spawns, g)
			// Still scan inside the closure for nested spawns.
			return true
		}
		return true
	}
	ast.Inspect(body, visit)
	return spawns
}

// writtenObj resolves the base object mutated by an assignment target.
// For `x = v`, `x.f = v`, `x[i] = v`, `*x = v` it is x's object; nil if
// the base is not a function-scoped identifier.
func writtenObj(info *types.Info, lhs ast.Expr) types.Object {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return nil
	}
	obj := identObj(info, id)
	if v, ok := obj.(*types.Var); ok && !v.IsField() {
		return obj
	}
	return nil
}

// indexedByClosureLocal reports whether lhs writes through an index
// expression whose index is rooted in a variable declared inside lit —
// the worker-pool idiom where each goroutine owns a distinct element.
func indexedByClosureLocal(info *types.Info, lhs ast.Expr, lit *ast.FuncLit) bool {
	for {
		switch t := unparen(lhs).(type) {
		case *ast.IndexExpr:
			if id := rootIdent(t.Index); id != nil {
				if obj := identObj(info, id); obj != nil && within(obj.Pos(), lit) {
					return true
				}
			}
			lhs = t.X
		case *ast.SelectorExpr:
			lhs = t.X
		case *ast.StarExpr:
			lhs = t.X
		default:
			return false
		}
	}
}

// waitBarriers returns the positions of sync.WaitGroup Wait() calls in
// body that sit outside every spawned closure.
func waitBarriers(body *ast.BlockStmt, info *types.Info, spawns []*goSpawn) []token.Pos {
	var waits []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && isSpawnLit(lit, spawns) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		if isWaitGroup(exprType(info, sel.X)) {
			waits = append(waits, call.Pos())
		}
		return true
	})
	return waits
}

// barrierBetween reports whether any Wait() barrier lies strictly
// between from and to.
func barrierBetween(waits []token.Pos, from, to token.Pos) bool {
	for _, w := range waits {
		if from < w && w < to {
			return true
		}
	}
	return false
}

// isWaitGroup reports whether t is (a pointer to) sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// isSpawnLit reports whether lit is one of the spawned closures.
func isSpawnLit(lit *ast.FuncLit, spawns []*goSpawn) bool {
	for _, g := range spawns {
		if g.lit == lit {
			return true
		}
	}
	return false
}

// within reports whether pos lies inside node n's source extent.
func within(pos token.Pos, n ast.Node) bool {
	return n != nil && n.Pos() <= pos && pos < n.End()
}
