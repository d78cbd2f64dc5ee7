package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// trackedStmt collects every statement the CFG builder is responsible
// for placing: statement-list members plus the statement-valued fields
// the builder evaluates on a block (if/for/switch Init, for Post, the
// type-switch Assign, select Comm statements, the statement under a
// label). Function literal bodies are excluded by construction — the
// collector only descends through statement structure, and a literal
// is an expression.
func trackedStmt(st ast.Stmt, out []ast.Stmt) []ast.Stmt {
	out = append(out, st)
	switch s := st.(type) {
	case *ast.BlockStmt:
		for _, c := range s.List {
			out = trackedStmt(c, out)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			out = append(out, s.Init)
		}
		for _, c := range s.Body.List {
			out = trackedStmt(c, out)
		}
		if s.Else != nil {
			out = trackedStmt(s.Else, out)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			out = append(out, s.Init)
		}
		if s.Post != nil {
			out = append(out, s.Post)
		}
		for _, c := range s.Body.List {
			out = trackedStmt(c, out)
		}
	case *ast.RangeStmt:
		for _, c := range s.Body.List {
			out = trackedStmt(c, out)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			out = append(out, s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, bs := range cc.Body {
					out = trackedStmt(bs, out)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			out = append(out, s.Init)
		}
		out = append(out, s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, bs := range cc.Body {
					out = trackedStmt(bs, out)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					out = append(out, cc.Comm)
				}
				for _, bs := range cc.Body {
					out = trackedStmt(bs, out)
				}
			}
		}
	case *ast.LabeledStmt:
		out = trackedStmt(s.Stmt, out)
	}
	return out
}

// renderCFG produces a canonical textual form of the graph — block ids,
// node/cond/mark positions, and labelled edges — so two builds can be
// compared byte for byte.
func renderCFG(g *cfg) string {
	var sb strings.Builder
	for _, b := range g.blocks {
		fmt.Fprintf(&sb, "b%d:", b.id)
		for _, n := range b.nodes {
			fmt.Fprintf(&sb, " n@%d", n.Pos())
		}
		if b.cond != nil {
			fmt.Fprintf(&sb, " cond@%d", b.cond.Pos())
		}
		for _, m := range b.marks {
			fmt.Fprintf(&sb, " m@%d", m.Pos())
		}
		for _, e := range b.succs {
			fmt.Fprintf(&sb, " ->%d[%s]", e.to.id, e.kind)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkCFGInvariants asserts the builder contract the flow-sensitive
// checks depend on: blocks[0..2] are entry/exit/panicExit, exits have
// no successors, every edge targets a block that lives in the graph at
// its own id, every tracked statement of the body lands in exactly one
// block (nodes or marks), and a rebuild yields a byte-identical graph.
func checkCFGInvariants(t *testing.T, g *cfg, fd *ast.FuncDecl, info *types.Info) {
	t.Helper()
	pos := func(n ast.Node) string { return fmt.Sprintf("offset %d", n.Pos()) }
	if len(g.blocks) < 3 || g.entry != g.blocks[0] || g.exit != g.blocks[1] || g.panicExit != g.blocks[2] {
		t.Fatalf("entry/exit/panicExit must be blocks 0/1/2 (%d blocks)", len(g.blocks))
	}
	if len(g.exit.succs) != 0 || len(g.panicExit.succs) != 0 {
		t.Fatalf("exit blocks must have no successors")
	}
	for i, b := range g.blocks {
		if b.id != i {
			t.Fatalf("block at index %d has id %d; ids must be dense construction order", i, b.id)
		}
		for _, e := range b.succs {
			if e.to == nil || e.to.id < 0 || e.to.id >= len(g.blocks) || g.blocks[e.to.id] != e.to {
				t.Fatalf("edge from block %d targets a block outside the graph", b.id)
			}
		}
	}
	var tracked []ast.Stmt
	if fd.Body != nil {
		for _, st := range fd.Body.List {
			tracked = trackedStmt(st, tracked)
		}
	}
	count := make(map[ast.Stmt]int)
	for _, b := range g.blocks {
		for _, n := range b.nodes {
			if st, ok := n.(ast.Stmt); ok {
				count[st]++
			}
		}
		for _, st := range b.marks {
			count[st]++
		}
	}
	for _, st := range tracked {
		if count[st] != 1 {
			t.Errorf("%s: statement (%T) placed in %d blocks; every statement must land in exactly one",
				pos(st), st, count[st])
		}
	}
	if again := renderCFG(buildCFG(fd.Body, info)); again != renderCFG(g) {
		t.Errorf("rebuild of %s produced a different graph; construction must be deterministic", fd.Name.Name)
	}
}

// fuzzTypeInfo best-effort type-checks a fuzzed file: most fuzz inputs
// do not type-check, which is fine — the builder needs the Info only to
// recognise the predeclared panic, and a partially filled Uses map
// degrades that edge, not the invariants.
func fuzzTypeInfo(fset *token.FileSet, file *ast.File) *types.Info {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Error: func(error) {}}
	conf.Check("p", fset, []*ast.File{file}, info) //nolint:errcheck // partial Info is the point
	return info
}

// FuzzCFG feeds arbitrary function bodies to the builder and pins its
// invariants. The seed corpus covers every statement shape the builder
// special-cases, including dead code and an unterminated select.
func FuzzCFG(f *testing.F) {
	seeds := []string{
		"x := 1\nx++\n_ = x",
		"if x := f(); x > 0 {\n\treturn\n} else if x < 0 {\n\tpanic(\"neg\")\n}\n_ = 1",
		"for i := 0; i < 10; i++ {\n\tif i == 3 {\n\t\tcontinue\n\t}\n\tif i == 7 {\n\t\tbreak\n\t}\n}",
		"for {\n\treturn\n}",
		"for range xs {\n\tfor _, v := range xs {\n\t\t_ = v\n\t}\n}",
		"switch x := f(); x {\ncase 1, 2:\n\tfallthrough\ncase 3:\n\treturn\ndefault:\n\tx++\n}",
		"switch v := any(x).(type) {\ncase int:\n\t_ = v\ncase string:\n}",
		"select {\ncase v := <-ch:\n\t_ = v\ncase ch <- 1:\ndefault:\n}",
		"select {}",
		"L:\n\tfor {\n\t\tfor {\n\t\t\tcontinue L\n\t\t}\n\t}",
		"goto done\n_ = 1\ndone:\n\treturn",
		"defer f()\nreturn\n_ = 1",
		"g := func() {\n\treturn\n}\ng()",
		"{\n\t{\n\t\t;\n\t}\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := "package p\n\nfunc fuzzed() {\n" + body + "\n}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			return
		}
		info := fuzzTypeInfo(fset, file)
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				checkCFGInvariants(t, buildCFG(fd.Body, info), fd, info)
			}
		}
	})
}

// TestCFGInvariantsOnModule runs the same invariants over every
// function of the real module — the code the flow-sensitive checks
// actually analyze.
func TestCFGInvariantsOnModule(t *testing.T) {
	for _, pkg := range loadModulePkgs(t) {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					checkCFGInvariants(t, buildCFG(fd.Body, pkg.Info), fd, pkg.Info)
				}
			}
		}
	}
}

// BenchmarkCFGBuild measures one fresh CFG construction pass over every
// function in the module — the incremental cost the v4 flow-sensitive
// layer adds on top of a loaded, type-checked module. Guarded by
// BENCH_core.json via make lint-bench.
func BenchmarkCFGBuild(b *testing.B) {
	pkgs := loadModulePkgs(b)
	type unit struct {
		fd   *ast.FuncDecl
		info *types.Info
	}
	var units []unit
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					units = append(units, unit{fd, pkg.Info})
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			buildCFG(u.fd.Body, u.info)
		}
	}
}
