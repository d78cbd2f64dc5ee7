// Control-flow graphs and the generic forward dataflow engine: pd2lint's
// one dataflow engine, under every flow rule — ownxfer's pooled-record
// states, lockorder's held-lock facts (interp.go), and gocapture's
// must-held mutex guard.
//
// buildCFG lowers one function or function-literal body to basic
// blocks connected by labelled edges. The shape is deliberately small:
//
//   - A block holds the nodes evaluated when control passes through it
//     (simple statements, if/for/switch Init statements, branch
//     conditions, switch case expressions, select comm statements), in
//     evaluation order. A *ast.RangeStmt appears as a block node for its
//     header only — the range operand and the iteration-variable
//     definitions are evaluated there, the body belongs to other blocks
//     (walkEvaluated encodes this).
//   - Edges carry a kind: edgeTrue/edgeFalse out of a two-way branch
//     (the block's cond field names the condition expression, which is
//     what refinement hooks key on), edgeCase out of a switch or select
//     dispatch, edgeFall otherwise.
//   - Returns edge to one shared exit block, calls to the predeclared
//     panic to a separate panicExit block, so "every path frees exactly
//     once" style rules can exempt failure paths. Deferred statements
//     are additionally collected on the graph (they run between the
//     last block and either exit).
//   - Compound statements and branch statements are recorded as marks
//     on the block where their dispatch begins; marks carry no
//     evaluated nodes and exist so every statement of the body lands in
//     exactly one block (FuzzCFG pins this).
//
// Block IDs are assigned in construction order, which is a pure
// recursion over the AST — two builds of the same body yield the same
// graph, and the solver iterates blocks in ID order, so every
// flow-sensitive check inherits the determinism the byte-identical
// diagnostics property test demands.
//
// Function literal bodies are not lowered into the enclosing graph (a
// literal body runs whenever the value is invoked, not where it is
// written). Flow-sensitive checks see the whole *ast.FuncLit as one
// node of the block that evaluates it, and build the literal's own
// graph from its body when they need one (gocapture's goroutine
// closures).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// edgeKind classifies a CFG edge.
type edgeKind uint8

const (
	edgeFall  edgeKind = iota // unconditional continuation
	edgeTrue                  // branch condition true (loop iterates)
	edgeFalse                 // branch condition false (loop exhausted)
	edgeCase                  // switch/select clause dispatch
)

func (k edgeKind) String() string {
	switch k {
	case edgeTrue:
		return "true"
	case edgeFalse:
		return "false"
	case edgeCase:
		return "case"
	}
	return "fall"
}

// cfgEdge is one directed control-flow edge.
type cfgEdge struct {
	to   *cfgBlock
	kind edgeKind
}

// cfgBlock is one basic block.
type cfgBlock struct {
	id    int
	nodes []ast.Node // evaluated nodes, in evaluation order
	cond  ast.Expr   // two-way branch condition; nil otherwise
	marks []ast.Stmt // compound/branch statements dispatched here
	succs []cfgEdge
}

// cfg is the control-flow graph of one function body. entry is always
// blocks[0]; exit and panicExit are ordinary members of blocks with no
// successors.
type cfg struct {
	blocks    []*cfgBlock
	entry     *cfgBlock
	exit      *cfgBlock // normal returns and body fall-off
	panicExit *cfgBlock // calls to the predeclared panic
	defers    []*ast.DeferStmt
}

// funcCFG returns the control-flow graph of fd's body, cached per
// package — lockorder, ownxfer and gocapture all walk the same
// functions and must not pay for three builds.
func (pkg *Package) funcCFG(fd *ast.FuncDecl) *cfg {
	if g, ok := pkg.cfgs[fd]; ok {
		return g
	}
	g := buildCFG(fd.Body, pkg.Info)
	if pkg.cfgs == nil {
		pkg.cfgs = make(map[*ast.FuncDecl]*cfg)
	}
	pkg.cfgs[fd] = g
	return g
}

// ---------------------------------------------------------------------
// Construction.

// cfgLabel is the target set of one declared label.
type cfgLabel struct {
	start *cfgBlock // goto target: the labelled statement's block
	brk   *cfgBlock // break L target (loops, switch, select)
	cont  *cfgBlock // continue L target (loops)
}

// pendingGoto is a goto awaiting its label (labels are function-scoped,
// so a forward goto resolves only after the whole body is built).
type pendingGoto struct {
	from  *cfgBlock
	label string
}

// flowCtx is the enclosing-statement context threaded through the
// recursion.
type flowCtx struct {
	brk      *cfgBlock // innermost break target
	cont     *cfgBlock // innermost continue target
	nextCase *cfgBlock // fallthrough target inside a switch case
	label    string    // label naming the statement about to be built
}

type cfgBuilder struct {
	g      *cfg
	info   *types.Info
	labels map[string]*cfgLabel
	gotos  []pendingGoto
}

// buildCFG lowers a function or function-literal body. A nil body
// yields the trivial entry->exit graph.
func buildCFG(body *ast.BlockStmt, info *types.Info) *cfg {
	g := &cfg{}
	b := &cfgBuilder{g: g, info: info, labels: make(map[string]*cfgLabel)}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	g.panicExit = b.newBlock()
	if body == nil {
		link(g.entry, g.exit, edgeFall)
		return g
	}
	if out := b.stmts(body.List, g.entry, flowCtx{}); out != nil {
		link(out, g.exit, edgeFall)
	}
	for _, pg := range b.gotos {
		if l := b.labels[pg.label]; l != nil && l.start != nil {
			link(pg.from, l.start, edgeFall)
		}
	}
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{id: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func link(from, to *cfgBlock, kind edgeKind) {
	from.succs = append(from.succs, cfgEdge{to: to, kind: kind})
}

// stmts builds a statement list into cur, returning the continuation
// block, or nil if control cannot fall off the end of the list.
// Statements after a terminator still get (unreachable) blocks, so the
// every-statement-lands-somewhere invariant holds for dead code too.
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *cfgBlock, ctx flowCtx) *cfgBlock {
	for _, st := range list {
		if cur == nil {
			cur = b.newBlock()
		}
		cur = b.stmt(st, cur, ctx)
	}
	return cur
}

// stmt builds one statement into cur, returning the continuation block
// or nil when the statement terminates flow.
func (b *cfgBuilder) stmt(st ast.Stmt, cur *cfgBlock, ctx flowCtx) *cfgBlock {
	// The label and fallthrough contexts apply only to the statement
	// they immediately precede.
	inner := ctx
	inner.label, inner.nextCase = "", nil

	switch s := st.(type) {
	case *ast.BlockStmt:
		cur.marks = append(cur.marks, s)
		return b.stmts(s.List, cur, inner)

	case *ast.IfStmt:
		cur.marks = append(cur.marks, s)
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		cur.cond = s.Cond
		thenB := b.newBlock()
		link(cur, thenB, edgeTrue)
		thenOut := b.stmts(s.Body.List, thenB, inner)
		if s.Else == nil {
			join := b.newBlock()
			link(cur, join, edgeFalse)
			if thenOut != nil {
				link(thenOut, join, edgeFall)
			}
			return join
		}
		elseB := b.newBlock()
		link(cur, elseB, edgeFalse)
		elseOut := b.stmt(s.Else, elseB, inner)
		if thenOut == nil && elseOut == nil {
			return nil
		}
		join := b.newBlock()
		if thenOut != nil {
			link(thenOut, join, edgeFall)
		}
		if elseOut != nil {
			link(elseOut, join, edgeFall)
		}
		return join

	case *ast.ForStmt:
		cur.marks = append(cur.marks, s)
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		header := b.newBlock()
		link(cur, header, edgeFall)
		body := b.newBlock()
		after := b.newBlock()
		contTgt := header
		if s.Post != nil {
			post := b.newBlock()
			post.nodes = append(post.nodes, s.Post)
			link(post, header, edgeFall)
			contTgt = post
		}
		if s.Cond != nil {
			header.nodes = append(header.nodes, s.Cond)
			header.cond = s.Cond
			link(header, body, edgeTrue)
			link(header, after, edgeFalse)
		} else {
			link(header, body, edgeFall)
		}
		if ctx.label != "" {
			b.labels[ctx.label].brk = after
			b.labels[ctx.label].cont = contTgt
		}
		inner.brk, inner.cont = after, contTgt
		if out := b.stmts(s.Body.List, body, inner); out != nil {
			link(out, contTgt, edgeFall)
		}
		return after

	case *ast.RangeStmt:
		header := b.newBlock()
		link(cur, header, edgeFall)
		header.nodes = append(header.nodes, s)
		body := b.newBlock()
		after := b.newBlock()
		link(header, body, edgeTrue)
		link(header, after, edgeFalse)
		if ctx.label != "" {
			b.labels[ctx.label].brk = after
			b.labels[ctx.label].cont = header
		}
		inner.brk, inner.cont = after, header
		if out := b.stmts(s.Body.List, body, inner); out != nil {
			link(out, header, edgeFall)
		}
		return after

	case *ast.SwitchStmt:
		cur.marks = append(cur.marks, s)
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		return b.switchClauses(s.Body, cur, ctx, inner, true)

	case *ast.TypeSwitchStmt:
		cur.marks = append(cur.marks, s)
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.switchClauses(s.Body, cur, ctx, inner, false)

	case *ast.SelectStmt:
		cur.marks = append(cur.marks, s)
		after := b.newBlock()
		if ctx.label != "" {
			b.labels[ctx.label].brk = after
		}
		inner.brk = after
		var caseBlocks []*cfgBlock
		var clauses []*ast.CommClause
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			link(cur, blk, edgeCase)
			if cc.Comm != nil {
				blk.nodes = append(blk.nodes, cc.Comm)
			}
			caseBlocks = append(caseBlocks, blk)
			clauses = append(clauses, cc)
		}
		for i, cc := range clauses {
			if out := b.stmts(cc.Body, caseBlocks[i], inner); out != nil {
				link(out, after, edgeFall)
			}
		}
		if len(clauses) == 0 {
			return nil // select {} blocks forever
		}
		return after

	case *ast.LabeledStmt:
		cur.marks = append(cur.marks, s)
		lblk := b.newBlock()
		link(cur, lblk, edgeFall)
		l := b.labels[s.Label.Name]
		if l == nil {
			l = &cfgLabel{}
			b.labels[s.Label.Name] = l
		}
		l.start = lblk
		inner.label = s.Label.Name
		return b.stmt(s.Stmt, lblk, inner)

	case *ast.BranchStmt:
		cur.marks = append(cur.marks, s)
		switch s.Tok {
		case token.BREAK:
			tgt := ctx.brk
			if s.Label != nil {
				tgt = nil
				if l := b.labels[s.Label.Name]; l != nil {
					tgt = l.brk
				}
			}
			if tgt != nil {
				link(cur, tgt, edgeFall)
			}
		case token.CONTINUE:
			tgt := ctx.cont
			if s.Label != nil {
				tgt = nil
				if l := b.labels[s.Label.Name]; l != nil {
					tgt = l.cont
				}
			}
			if tgt != nil {
				link(cur, tgt, edgeFall)
			}
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: cur, label: s.Label.Name})
			}
		case token.FALLTHROUGH:
			if ctx.nextCase != nil {
				link(cur, ctx.nextCase, edgeFall)
			}
		}
		return nil

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		link(cur, b.g.exit, edgeFall)
		return nil

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok &&
				id.Name == "panic" && isBuiltinUse(b.info, id) {
				link(cur, b.g.panicExit, edgeFall)
				return nil
			}
		}
		return cur

	case *ast.DeferStmt:
		cur.nodes = append(cur.nodes, s)
		b.g.defers = append(b.g.defers, s)
		return cur

	case *ast.EmptyStmt:
		cur.marks = append(cur.marks, s)
		return cur

	default:
		// Assign, Decl, Send, IncDec, Go: straight-line evaluated nodes.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchClauses builds the clause blocks of a (type) switch dispatched
// from cur. Value-switch case expressions are evaluated on the clause's
// block; type-switch case lists are types, not evaluations, and carry
// nothing.
func (b *cfgBuilder) switchClauses(body *ast.BlockStmt, cur *cfgBlock, ctx, inner flowCtx, valueSwitch bool) *cfgBlock {
	after := b.newBlock()
	if ctx.label != "" {
		b.labels[ctx.label].brk = after
	}
	inner.brk = after
	var caseBlocks []*cfgBlock
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		link(cur, blk, edgeCase)
		if valueSwitch {
			for _, e := range cc.List {
				blk.nodes = append(blk.nodes, e)
			}
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, cc)
	}
	if !hasDefault {
		link(cur, after, edgeCase)
	}
	for i, cc := range clauses {
		cctx := inner
		if valueSwitch && i+1 < len(caseBlocks) {
			cctx.nextCase = caseBlocks[i+1]
		}
		if out := b.stmts(cc.Body, caseBlocks[i], cctx); out != nil {
			link(out, after, edgeFall)
		}
	}
	return after
}

// walkEvaluated visits the subtree evaluated when n executes as a block
// node. For a *ast.RangeStmt header only the range operand and the
// iteration-variable expressions are evaluated here — the body belongs
// to other blocks. Everything else is walked whole, including function
// literal bodies; checks that must not descend into a literal return
// false from f at the *ast.FuncLit.
func walkEvaluated(n ast.Node, f func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		ast.Inspect(rs.X, f)
		if rs.Key != nil {
			ast.Inspect(rs.Key, f)
		}
		if rs.Value != nil {
			ast.Inspect(rs.Value, f)
		}
		return
	}
	ast.Inspect(n, f)
}

// ---------------------------------------------------------------------
// The forward dataflow engine.

// flowFns packages one forward dataflow problem over a cfg.
//
// The lattice contract: join(dst, src) merges src into dst and reports
// whether dst changed; it may read src but must not retain references
// into it (copy what it keeps). transfer receives an owned state (the
// solver clones before every call) and may mutate it freely. refine,
// when non-nil, sharpens the out-state along one edge — it must treat
// the state as shared and clone before modifying. Monotone joins over a
// finite lattice converge; the solver additionally caps iteration as a
// backstop so a buggy transfer cannot hang the lint run.
type flowFns[S any] struct {
	init     S
	clone    func(S) S
	join     func(dst, src S) (S, bool)
	transfer func(b *cfgBlock, s S) S
	refine   func(b *cfgBlock, e cfgEdge, s S) S
}

// solveForward computes the fixpoint in-state of every block, round-
// robin in block ID order (construction order approximates reverse
// postorder, so acyclic regions converge in one pass). reached[id]
// reports whether the block is reachable from entry; unreached blocks
// keep the zero state and must be skipped by callers replaying
// transfers for reporting.
func solveForward[S any](g *cfg, f flowFns[S]) (in []S, reached []bool) {
	in = make([]S, len(g.blocks))
	reached = make([]bool, len(g.blocks))
	in[g.entry.id] = f.init
	reached[g.entry.id] = true
	maxRounds := 32*len(g.blocks) + 64
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, b := range g.blocks {
			if !reached[b.id] {
				continue
			}
			out := f.transfer(b, f.clone(in[b.id]))
			for _, e := range b.succs {
				s := out
				if f.refine != nil {
					s = f.refine(b, e, out)
				}
				if !reached[e.to.id] {
					reached[e.to.id] = true
					in[e.to.id] = f.clone(s)
					changed = true
				} else if merged, ch := f.join(in[e.to.id], s); ch {
					in[e.to.id] = merged
					changed = true
				} else {
					in[e.to.id] = merged
				}
			}
		}
		if !changed {
			break
		}
	}
	return in, reached
}
