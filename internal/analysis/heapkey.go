// The heapkey check: heap ordering keys may only change under the
// owning heap's push/pop/fix discipline.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HeapKey flags writes to (and escaping addresses of) fields that a
// heap's comparison function reads, outside the owning heap's methods
// and the annotation table's explicitly allowed functions.
//
// The event-driven engine orders six calendar heaps by (tevent.at,
// tevent.seq) and the indexed PD² ready-heap by the offered subtask's
// (deadline, b-bit, group deadline) through taskState.offer/readyIdx.
// An in-place write to any of those fields while the element sits in a
// heap silently breaks the heap invariant: pops come out mis-ordered,
// the schedule diverges from the reference engine, and no unit test
// fails until a differential replay happens to cover the path. The
// key fields are registered in the annotation table (annotations.go);
// a stale table entry is itself a diagnostic.
func HeapKey() *Analyzer {
	return &Analyzer{
		Name: "heapkey",
		Doc:  "heap ordering keys are written only inside the owning heap's push/pop/fix call chain (annotation table)",
		AppliesTo: func(pkgPath string) bool {
			return len(heapKeySpecsFor(pkgPath)) > 0
		},
		Run: runHeapKey,
	}
}

func runHeapKey(p *Pass) []Diagnostic {
	specs := heapKeySpecsFor(p.Pkg.Path)
	if len(specs) == 0 {
		return nil
	}
	var diags []Diagnostic
	specs = validateHeapKeySpecs(p, specs, &diags)

	// keyFields: field object -> owning spec, resolved through go/types
	// so shadowed names and embedded selectors cannot confuse matching.
	keyOf := make(map[*types.Var]*heapKeySpec)
	for i := range specs {
		s := &specs[i]
		st, ok := lookupStruct(p.Pkg.Types, s.Struct)
		if !ok {
			continue
		}
		for j := 0; j < st.NumFields(); j++ {
			f := st.Field(j)
			for _, name := range s.Fields {
				if f.Name() == name {
					keyOf[f] = s
				}
			}
		}
	}
	if len(keyOf) == 0 {
		return diags
	}

	for _, fi := range p.Funcs() {
		allowed := func(s *heapKeySpec) bool {
			if fi.Recv == s.Owner {
				return true
			}
			for _, name := range s.AllowIn {
				if fi.Name == name {
					return true
				}
			}
			return false
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if f, s := keyField(p.Pkg.Info, lhs, keyOf); f != nil && !allowed(s) {
						p.report(&diags, "heapkey", lhs,
							"write to heap ordering key %s.%s outside %s's methods (allowed: %s); reorder only via the owning heap",
							s.Struct, f.Name(), s.Owner, allowedList(s))
					}
				}
			case *ast.IncDecStmt:
				if f, s := keyField(p.Pkg.Info, n.X, keyOf); f != nil && !allowed(s) {
					p.report(&diags, "heapkey", n,
						"in-place %s of heap ordering key %s.%s outside %s's methods (allowed: %s)",
						n.Tok, s.Struct, f.Name(), s.Owner, allowedList(s))
				}
			case *ast.UnaryExpr:
				if n.Op != token.AND {
					return true
				}
				if f, s := keyField(p.Pkg.Info, n.X, keyOf); f != nil && !allowed(s) {
					p.report(&diags, "heapkey", n,
						"address of heap ordering key %s.%s taken outside %s's methods; the escaping pointer can mutate heap order",
						s.Struct, f.Name(), s.Owner)
				}
			}
			return true
		})
	}
	return diags
}

// keyField resolves e (if it is a selector of a registered ordering
// key, or an element of one that is an array) to the field object and
// its spec.
func keyField(info *types.Info, e ast.Expr, keyOf map[*types.Var]*heapKeySpec) (*types.Var, *heapKeySpec) {
	e = unparen(e)
	for {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			break
		}
		if _, isArray := info.TypeOf(ix.X).Underlying().(*types.Array); !isArray {
			break
		}
		e = unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	// Prefer the recorded selection (handles embedded fields); fall back
	// to the Uses entry for direct selectors.
	if s, ok := info.Selections[sel]; ok {
		if f, ok := s.Obj().(*types.Var); ok {
			if spec, ok := keyOf[f]; ok {
				return f, spec
			}
		}
		return nil, nil
	}
	if f, ok := info.Uses[sel.Sel].(*types.Var); ok {
		if spec, ok := keyOf[f]; ok {
			return f, spec
		}
	}
	return nil, nil
}

// allowedList renders the allowed writers of a spec for diagnostics.
func allowedList(s *heapKeySpec) string {
	names := append([]string{s.Owner + ".*"}, s.AllowIn...)
	return qualifyList(names)
}

// validateHeapKeySpecs drops (and reports) table entries whose struct,
// fields, owner type, or allow-listed functions no longer exist — the
// annotation table must not rot silently.
func validateHeapKeySpecs(p *Pass, specs []heapKeySpec, diags *[]Diagnostic) []heapKeySpec {
	var out []heapKeySpec
	for _, s := range specs {
		ok := true
		st, found := lookupStruct(p.Pkg.Types, s.Struct)
		if !found {
			p.reportAtPkg(diags, "heapkey",
				"stale annotation: heapkey table names struct %s.%s, which does not exist", s.Pkg, s.Struct)
			ok = false
		} else {
			for _, f := range s.Fields {
				if !structHasField(st, f) {
					p.reportAtPkg(diags, "heapkey",
						"stale annotation: heapkey table names field %s.%s, which does not exist", s.Struct, f)
					ok = false
				}
			}
		}
		if !typeDeclared(p.Pkg.Types, s.Owner) {
			p.reportAtPkg(diags, "heapkey",
				"stale annotation: heapkey table names owner type %s.%s, which does not exist", s.Pkg, s.Owner)
			ok = false
		}
		for _, name := range s.AllowIn {
			if !hasFuncNamed(p, name) {
				p.reportAtPkg(diags, "heapkey",
					"stale annotation: heapkey table allows %s in %s, which does not exist", name, s.Pkg)
				ok = false
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}
