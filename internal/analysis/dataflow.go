// The multi-pass layer: per-package facts shared by every analyzer in a
// run, plus the expression and statement helpers the dataflow checks
// share, built only on go/ast and go/types.
//
// pd2lint v1 checks were single-walk AST pattern matchers. The
// event-driven engine's invariants (pool reuse stamps, heap-key
// discipline, goroutine capture safety) are *dataflow* properties: they
// concern where a value came from and where it is still live, not what
// one expression looks like. Those flow rules all run on one engine,
// the per-function CFG and forward solver of cfg.go; everything here is
// the shared vocabulary they are written in. The analyses stay
// intraprocedural, because every diagnostic they feed is suppressible
// and reviewed; soundness beyond the function boundary is documented
// as out of scope in docs/LINT.md.
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ---------------------------------------------------------------------
// Per-package shared facts.

// funcInfo describes one top-level function or method declaration.
type funcInfo struct {
	Decl *ast.FuncDecl
	File *ast.File
	// Recv is the bare receiver type name ("" for plain functions);
	// Name is "Recv.Method" for methods and the identifier for functions.
	Recv string
	Name string
}

// packageFacts caches artifacts every analyzer of a run may need, so
// each is computed once per package no matter how many checks run.
type packageFacts struct {
	funcs      []*funcInfo
	funcsBuilt bool
	enums      []*enumInfo
	enumsBuilt bool
}

// newPass builds the Pass (with its shared fact cache) for one package.
func newPass(pkg *Package) *Pass {
	return &Pass{Pkg: pkg, facts: &packageFacts{}}
}

// Funcs returns every top-level function and method of the package, in
// file order. Built once per package and shared across analyzers.
func (p *Pass) Funcs() []*funcInfo {
	if p.facts.funcsBuilt {
		return p.facts.funcs
	}
	p.facts.funcsBuilt = true
	p.facts.funcs = collectFuncs(p.Pkg)
	return p.facts.funcs
}

// collectFuncs lists the package's top-level declarations in file order.
// Shared by the per-package fact cache and the interprocedural layer.
func collectFuncs(pkg *Package) []*funcInfo {
	var out []*funcInfo
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := &funcInfo{Decl: fd, File: f, Name: fd.Name.Name}
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				fi.Recv = recvTypeName(fd.Recv.List[0].Type)
				if fi.Recv != "" {
					fi.Name = fi.Recv + "." + fd.Name.Name
				}
			}
			out = append(out, fi)
		}
	}
	return out
}

// recvTypeName extracts the bare type name of a receiver expression,
// peeling pointers and (for generic types) type parameter lists.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// ---------------------------------------------------------------------
// Expression helpers shared by the dataflow checks.

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// rootIdent walks to the base identifier of an lvalue-shaped expression
// (x, x.f, x[i], *x, (x).f ...), or nil if the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// identObj resolves an identifier to its object (use or def).
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// namedTypeName returns the name of the named (possibly pointed-to)
// type of t declared in pkg, or "".
func namedTypeName(t types.Type, pkg *types.Package) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		if ptr, ok := t.(*types.Pointer); ok {
			named, ok = ptr.Elem().(*types.Named)
			if !ok {
				return ""
			}
		} else {
			return ""
		}
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() != pkg {
		return ""
	}
	return obj.Name()
}

// ---------------------------------------------------------------------
// Statement structure and lock calls.

// nestedStmtLists returns the statement lists directly nested in st.
func nestedStmtLists(st ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch st := st.(type) {
	case *ast.BlockStmt:
		out = append(out, st.List)
	case *ast.IfStmt:
		out = append(out, st.Body.List)
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			out = append(out, e.List)
		case *ast.IfStmt:
			out = append(out, nestedStmtLists(e)...)
		}
	case *ast.ForStmt:
		out = append(out, st.Body.List)
	case *ast.RangeStmt:
		out = append(out, st.Body.List)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, nestedStmtLists(st.Stmt)...)
	}
	return out
}

// lockCallKind classifies e as a Lock/RLock/Unlock/RUnlock method call
// on a sync.Mutex, sync.RWMutex, or sync.Locker; "" otherwise.
func lockCallKind(e ast.Expr, info *types.Info) string {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return ""
	}
	if !isSyncLocker(exprType(info, sel.X)) {
		return ""
	}
	return name
}

// isSyncLocker reports whether t is (a pointer to) a sync mutex type or
// the sync.Locker interface.
func isSyncLocker(t types.Type) bool {
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
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "Locker":
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Misc shared predicates.

// containsPanic reports whether any statement in list calls panic.
func containsPanic(list []ast.Stmt) bool {
	found := false
	for _, st := range list {
		ast.Inspect(st, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					found = true
					return false
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// qualify renders "Recv.Method" / "Func" names for diagnostics.
func qualifyList(names []string) string {
	return strings.Join(names, ", ")
}
