// The interprocedural layer: a deterministic call graph over every
// package of one lint run plus bottom-up function effect summaries.
//
// pd2lint v1/v2 checks are intraprocedural: they can flag a time.Now()
// or a heap escape only inside the function that contains it. The
// invariants the next engine milestones lean on are *transitive*
// properties — "the slot loop is allocation-free all the way down",
// "nothing nondeterministic feeds the command log", "locks are always
// taken in one global order" — so this file lifts the existing per-
// function facts to the call graph:
//
//   - Static call edges are resolved through go/types: direct function
//     calls, concrete method calls (including cross-package ones — the
//     loader shares type objects, so a *types.Func is identical however
//     it is reached), and generic instantiations via Origin(). Calls
//     through interfaces or function values are kept as explicit
//     *dynamic* edges: no effect propagates through them (taint could
//     be missed; docs/LINT.md spells the polarity out) but hotalloc
//     flags them, because "unknown callee" and "allocation-free" cannot
//     coexist.
//   - Effect summaries (allocates, reads-time, reads-unseeded-rand,
//     ranges-over-map order-sensitively, blocks-on-channel, acquires
//     locks) are joined bottom-up to a fixpoint. The lattice is a
//     finite powerset and the transfer function is monotone union, so
//     the fixpoint is unique — summaries do not depend on package load
//     order, which the byte-identical-diagnostics property test pins.
//
// Everything is cached per interp (one per RunChecks invocation) and
// per package; building is lazy, so runs that select none of the
// interprocedural checks pay nothing.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------
// Effect lattice.

// effect is a bitset of function effects, joined bottom-up over the
// call graph.
type effect uint8

const (
	// effAlloc: the function may allocate on the heap (it has at least
	// one alloc site of its own; see allocSite for the catalog).
	effAlloc effect = 1 << iota
	// effTime: reads the wall clock (time.Now/Since/Until).
	effTime
	// effRand: draws from the unseeded global math/rand source.
	effRand
	// effMapOrder: iterates a map order-sensitively with no following
	// deterministic sort (the determinism check's classifier).
	effMapOrder
	// effBlock: may block on a channel (send, receive, select without
	// default, range over channel), a WaitGroup/Cond wait, or a sleep.
	effBlock
)

// taintMask is the subset of effects that make a function's output
// nondeterministic across runs — the detflow taint sources.
const taintMask = effTime | effRand | effMapOrder

func (e effect) describe() string {
	var parts []string
	if e&effAlloc != 0 {
		parts = append(parts, "allocates")
	}
	if e&effTime != 0 {
		parts = append(parts, "reads the wall clock")
	}
	if e&effRand != 0 {
		parts = append(parts, "reads unseeded randomness")
	}
	if e&effMapOrder != 0 {
		parts = append(parts, "depends on map iteration order")
	}
	if e&effBlock != 0 {
		parts = append(parts, "may block")
	}
	if len(parts) == 0 {
		return "pure"
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------
// Per-function records.

// callSite is one call expression with its resolution.
type callSite struct {
	call    *ast.CallExpr
	callee  *types.Func // static callee (Origin-normalized); nil if dynamic
	dynamic bool        // dispatch through an interface or function value
	inPanic bool        // appears inside panic(...) arguments (failure path)
	spawned bool        // the call is the operand of a go statement
}

// allocSite is one intrinsic heap-allocation site.
type allocSite struct {
	node ast.Node
	kind string // human-readable classification
}

// blockSite is one intrinsic potentially-blocking operation.
type blockSite struct {
	node ast.Node
	kind string
}

// lockAcq is one mutex acquisition, identified canonically (see lockID).
type lockAcq struct {
	id   string
	node ast.Node
}

// heldLock is one lock known to be held on some path, with the
// acquisition that introduced it (the earliest across joined paths).
type heldLock struct {
	id  string
	acq ast.Node
}

// lockFlowAcq is one acquisition with the set of locks already held on
// some path reaching it — the lock-order graph's same-function edges.
type lockFlowAcq struct {
	id   string
	node ast.Node
	held []heldLock // held before this acquisition; sorted, may be empty
}

// lockFlowLeak is one lock that is released on some path of the
// function but still held when the exit block is reached on another.
type lockFlowLeak struct {
	id  string
	acq ast.Node
}

// interpFn is the interprocedural summary of one declared function.
type interpFn struct {
	obj   *types.Func
	fi    *funcInfo
	pkg   *Package
	qname string // "importpath.Recv.Method" — the global key
	short string // "pkgbase.Recv.Method" — the message form

	noalloc bool // //lint:noalloc on the doc comment
	allocok bool // //lint:allocok on the doc comment

	calls    []callSite
	allocs   []allocSite
	blocks   []blockSite
	lockAcqs []lockAcq

	// CFG-derived lock facts (scanLockFlow): acquisitions with their
	// may-held sets, held sets at calls and at intrinsic blocking sites,
	// and locks leaked past a return on some path.
	acqs      []lockFlowAcq
	heldCall  map[*ast.CallExpr][]heldLock
	heldBlock map[ast.Node][]heldLock
	lockLeaks []lockFlowLeak

	intr    effect              // intrinsic effects (this body only)
	eff     effect              // transitive effects (fixpoint)
	effSite map[effect]*effSite // first intrinsic site per bit, source order
	locks   map[string]bool     // transitive lock-acquisition set

	sink     bool // this function is a registered replay sink
	reaches  bool // transitively calls a replay sink
	sinkSite ast.Node
	sinkName string
}

// effSite records where an intrinsic effect first occurs.
type effSite struct {
	node ast.Node
	desc string // e.g. "time.Now", "channel send"
}

// ---------------------------------------------------------------------
// The interp container.

// interp holds the call graph and summaries for one RunChecks
// invocation. It is shared by every Pass of the run and built lazily on
// first use.
type interp struct {
	pkgs  []*Package // sorted by import path — load order never leaks
	built bool

	fns   map[*types.Func]*interpFn
	order []*interpFn // deterministic: (pkg path, file order, decl order)

	// Memoized per-run check results, bucketed by package path; the
	// interprocedural checks compute globally once and each Pass returns
	// its own bucket.
	hotalloc  map[string][]Diagnostic
	detflow   map[string][]Diagnostic
	lockorder map[string][]Diagnostic
}

func newInterp(pkgs []*Package) *interp {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	return &interp{pkgs: sorted}
}

// interpFacts returns the run-wide interprocedural layer, creating a
// single-package one when the Pass was built outside RunChecks.
func (p *Pass) interpFacts() *interp {
	if p.interp == nil {
		p.interp = newInterp([]*Package{p.Pkg})
	}
	p.interp.ensure()
	return p.interp
}

// ensure builds the call graph and runs the effect fixpoints.
func (ip *interp) ensure() {
	if ip.built {
		return
	}
	ip.built = true
	ip.fns = make(map[*types.Func]*interpFn)
	for _, pkg := range ip.pkgs {
		for _, fi := range collectFuncs(pkg) {
			obj, _ := pkg.Info.Defs[fi.Decl.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fn := &interpFn{
				obj:     obj,
				fi:      fi,
				pkg:     pkg,
				qname:   pkg.Path + "." + fi.Name,
				short:   shortPkg(pkg.Path) + "." + fi.Name,
				effSite: make(map[effect]*effSite),
				locks:   make(map[string]bool),
			}
			fn.noalloc = hasFuncDirective(fi.Decl, noallocPrefix)
			fn.allocok = hasFuncDirective(fi.Decl, allocokPrefix)
			fn.sink = isReplaySink(fn.qname)
			ip.fns[obj] = fn
			ip.order = append(ip.order, fn)
		}
	}
	for _, fn := range ip.order {
		ip.scanBody(fn)
	}
	for _, fn := range ip.order {
		ip.scanLockFlow(fn)
	}
	ip.fixpoint()
}

// shortPkg renders an import path's base for messages ("repro/internal/
// core" -> "core").
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// byQname returns the summaries sorted by qualified name — the
// deterministic iteration order every interprocedural check reports in.
func (ip *interp) byQname() []*interpFn {
	out := make([]*interpFn, len(ip.order))
	copy(out, ip.order)
	sort.Slice(out, func(i, j int) bool { return out[i].qname < out[j].qname })
	return out
}

// fnOf resolves a static callee to its in-run summary, or nil.
func (ip *interp) fnOf(obj *types.Func) *interpFn {
	if obj == nil {
		return nil
	}
	return ip.fns[obj]
}

// ---------------------------------------------------------------------
// Function directives (//lint:noalloc, //lint:allocok).

const (
	noallocPrefix = "lint:noalloc"
	allocokPrefix = "lint:allocok"
)

// hasFuncDirective reports whether the declaration's doc comment
// carries the directive. Directives live on the doc comment — a
// trailing comment inside the body does not count, mirroring how
// //lint:exhaustive anchors to type declarations.
func hasFuncDirective(fd *ast.FuncDecl, prefix string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		body := strings.TrimSpace(trimCommentMarkers(c.Text))
		if body == prefix || strings.HasPrefix(body, prefix+" ") {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Body scanning: call sites, alloc sites, blocking sites, lock facts.

// scanBody fills the intrinsic facts of fn in one traversal family.
func (ip *interp) scanBody(fn *interpFn) {
	body := fn.fi.Decl.Body
	info := fn.pkg.Info

	skip := skippedNodes(body)
	params := paramObjects(fn.fi.Decl, info)

	// Accepted append targets: slices rooted in long-lived storage
	// (struct fields) or caller-owned buffers (parameters), plus locals
	// assigned from either — the `buf := s.buf[:0]` reuse idiom. Growth
	// of such a buffer is amortized: steady state re-appends into
	// retained capacity, which the runtime zero-alloc tests confirm.
	reused := reusedBuffers(body, info, params)

	// Map lookups keyed by string(byteSlice): the compiler compiles an
	// rvalue m[string(b)] without materializing the string, so the
	// conversion is free. Assignments (m[string(b)] = v) still intern
	// the key and stay flagged.
	mapIdxOK := mapIndexStringLookups(body, info)

	// Non-blocking select statements: their comm clauses are polls, not
	// waits, so the sends/receives inside the clause headers are exempt.
	nonBlockComm := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					nonBlockComm[cc.Comm] = true
				}
			}
		}
		return true
	})

	addEff := func(bit effect, node ast.Node, desc string) {
		fn.intr |= bit
		if fn.effSite[bit] == nil {
			fn.effSite[bit] = &effSite{node: node, desc: desc}
		}
	}
	addAlloc := func(node ast.Node, kind string) {
		fn.allocs = append(fn.allocs, allocSite{node: node, kind: kind})
		addEff(effAlloc, node, kind)
	}
	addBlock := func(node ast.Node, kind string) {
		fn.blocks = append(fn.blocks, blockSite{node: node, kind: kind})
		addEff(effBlock, node, kind)
	}

	var walk func(n ast.Node, inPanic bool)
	walk = func(root ast.Node, inPanic bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil || skip[n] {
				return n != nil && !skip[n]
			}
			switch n := n.(type) {
			case *ast.GoStmt:
				addAlloc(n, "go statement allocates a goroutine")
				// The spawned body runs concurrently: its effects are not
				// the caller's. The call operand is recorded as a spawned
				// site so hotalloc can still see it if needed.
				if cs, ok := resolveCall(info, n.Call); ok {
					cs.spawned = true
					fn.calls = append(fn.calls, cs)
				}
				for _, arg := range n.Call.Args {
					walk(arg, inPanic)
				}
				return false
			case *ast.CallExpr:
				if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" && isBuiltinUse(info, id) {
					// Failure path: the function is about to die, so
					// allocation and effects inside the arguments are
					// exempt from hotalloc (the call edge is still kept,
					// marked inPanic).
					for _, arg := range n.Args {
						walk(arg, true)
					}
					return false
				}
				ip.scanCall(fn, n, info, inPanic, reused, mapIdxOK, addAlloc)
				if cs, ok := resolveCall(info, n); ok {
					cs.inPanic = inPanic
					fn.calls = append(fn.calls, cs)
					if !inPanic {
						if ext := externEffect(cs.callee, ip); ext != 0 {
							desc := "call to " + externName(cs.callee)
							for _, bit := range []effect{effTime, effRand, effBlock} {
								if ext&bit != 0 {
									addEff(bit, n, desc)
								}
							}
						}
					}
				}
			case *ast.UnaryExpr:
				switch n.Op {
				case token.AND:
					if _, ok := unparen(n.X).(*ast.CompositeLit); ok && !inPanic {
						addAlloc(n, "escaping composite literal allocates")
						walk(n.X, inPanic)
						return false
					}
				case token.ARROW:
					if !nonBlockComm[enclosingCommStmt(n, nonBlockComm)] {
						addBlock(n, "channel receive")
					}
				}
			case *ast.CompositeLit:
				if inPanic {
					return true
				}
				if t := exprType(info, n); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice:
						addAlloc(n, "slice literal allocates")
					case *types.Map:
						addAlloc(n, "map literal allocates")
					}
				}
			case *ast.FuncLit:
				if !inPanic && !acceptedFuncLit(body, n) {
					addAlloc(n, "closure may be heap-allocated")
				}
				// The literal's body executes on this goroutine when
				// invoked; scan it as part of the enclosing function.
			case *ast.SendStmt:
				if !nonBlockComm[n] {
					addBlock(n, "channel send")
				}
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					addBlock(n, "select with no default case")
				}
			case *ast.RangeStmt:
				if t := exprType(info, n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						addBlock(n, "range over channel")
					}
				}
			case *ast.BinaryExpr:
				if !inPanic && n.Op == token.ADD {
					if t := exprType(info, n.X); t != nil && isStringType(t) {
						addAlloc(n, "string concatenation allocates")
					}
				}
			case *ast.AssignStmt:
				if !inPanic && n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
					if t := exprType(info, n.Lhs[0]); t != nil && isStringType(t) {
						addAlloc(n, "string concatenation allocates")
					}
				}
			}
			return true
		})
	}
	walk(body, false)

	// Map-order sensitivity: reuse the determinism check's classifier
	// (range over map + order-sensitive accumulation + no following
	// sort) so the two checks cannot drift apart.
	var scanRanges func(stmts []ast.Stmt)
	scanRanges = func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			if rs, ok := stmt.(*ast.RangeStmt); ok {
				if t := exprType(info, rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						if kind, sensitive := mapBodyOrderSensitive(rs, info); sensitive && !sortFollows(stmts[i+1:], info) {
							addEff(effMapOrder, rs, "map iteration that "+kind)
						}
					}
				}
			}
			for _, nested := range nestedStmtLists(stmt) {
				scanRanges(nested)
			}
		}
	}
	scanRanges(body.List)

	// Lock facts: acquisitions anywhere in the body (conservative
	// may-acquire set, including closures). The path-sensitive held
	// sets are computed separately by scanLockFlow on the CFG.
	ast.Inspect(body, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind := lockCallKind(call, info); kind == "Lock" || kind == "RLock" {
			if id := lockIDOf(call, info, fn); id != "" {
				fn.lockAcqs = append(fn.lockAcqs, lockAcq{id: id, node: call})
			}
		}
		return true
	})
	for _, a := range fn.lockAcqs {
		fn.locks[a.id] = true
	}
}

// ---------------------------------------------------------------------
// CFG lock flow.

// lockFlowState is the forward dataflow state of scanLockFlow: the
// locks held on some path reaching a point, and the lock IDs with a
// pending defer-unlock.
type lockFlowState struct {
	held     []heldLock      // sorted by (acq position, id), one per id
	deferred map[string]bool // defer mu.Unlock() seen on the path
}

func cloneLockFlow(s lockFlowState) lockFlowState {
	out := lockFlowState{deferred: make(map[string]bool, len(s.deferred))}
	out.held = append([]heldLock(nil), s.held...)
	for id := range s.deferred {
		out.deferred[id] = true
	}
	return out
}

// holds reports whether id is in the held set.
func (s *lockFlowState) holds(id string) bool {
	for _, h := range s.held {
		if h.id == id {
			return true
		}
	}
	return false
}

// acquire adds id to the held set, keeping sorted order and the
// earliest acquisition as the witness.
func (s *lockFlowState) acquire(id string, node ast.Node) {
	if s.holds(id) {
		return
	}
	s.held = append(s.held, heldLock{id: id, acq: node})
	sortHeld(s.held)
}

// release removes id from the held set.
func (s *lockFlowState) release(id string) {
	for i, h := range s.held {
		if h.id == id {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
}

func sortHeld(held []heldLock) {
	sort.Slice(held, func(i, j int) bool {
		if held[i].acq.Pos() != held[j].acq.Pos() {
			return held[i].acq.Pos() < held[j].acq.Pos()
		}
		return held[i].id < held[j].id
	})
}

// scanLockFlow computes fn's path-sensitive lock facts on its CFG:
// which locks may be held at each acquisition, call, and intrinsic
// blocking site, and which locks can leak past a return. Replaces the
// lexical lock spans the v3 layer used — conditional unlocks and early
// returns are now modelled by the flow itself.
func (ip *interp) scanLockFlow(fn *interpFn) {
	body := fn.fi.Decl.Body
	if body == nil {
		return
	}
	info := fn.pkg.Info
	// Skip the flow entirely for functions that never touch a lock
	// (neither their own acquisitions nor unlocks of a caller's lock).
	touches := false
	ast.Inspect(body, func(n ast.Node) bool {
		if touches {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && lockCallKind(call, info) != "" {
			touches = true
		}
		return !touches
	})
	if !touches {
		return
	}

	g := fn.pkg.funcCFG(fn.fi.Decl)
	blockSites := make(map[ast.Node]bool, len(fn.blocks))
	for _, b := range fn.blocks {
		blockSites[b.node] = true
	}

	rec := false
	releases := make(map[string]bool) // ids this body unlocks anywhere

	// apply processes one CFG node (or mark) against the state.
	var apply func(n ast.Node, s *lockFlowState)
	apply = func(n ast.Node, s *lockFlowState) {
		// Blocking sites that the evaluated walk does not visit as
		// expressions (select statements live in block marks; range
		// headers are their own node).
		if rec && blockSites[n] && len(s.held) > 0 && fn.heldBlock[n] == nil {
			fn.heldBlock[n] = append([]heldLock(nil), s.held...)
		}
		walkEvaluated(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				// The literal runs when invoked, possibly elsewhere; its
				// body must not change this flow's state. But calls and
				// blocking operations written inside it while a lock is
				// held here are still performed under the lock whenever
				// the literal is invoked in place (the conservative
				// reading the lexical spans used).
				if rec && len(s.held) > 0 {
					snap := append([]heldLock(nil), s.held...)
					ast.Inspect(m.Body, func(mm ast.Node) bool {
						switch mm := mm.(type) {
						case *ast.CallExpr:
							if lockCallKind(mm, info) == "" && fn.heldCall[mm] == nil {
								fn.heldCall[mm] = snap
							}
						default:
							if blockSites[mm] && fn.heldBlock[mm] == nil {
								fn.heldBlock[mm] = snap
							}
						}
						return true
					})
				}
				return false
			case *ast.DeferStmt:
				switch lockCallKind(m.Call, info) {
				case "Unlock", "RUnlock":
					if id := lockIDOf(m.Call, info, fn); id != "" {
						s.deferred[id] = true
						releases[id] = true
					}
					return false
				}
				for _, a := range m.Call.Args {
					apply(a, s)
				}
				if rec && len(s.held) > 0 && fn.heldCall[m.Call] == nil {
					fn.heldCall[m.Call] = append([]heldLock(nil), s.held...)
				}
				return false
			case *ast.CallExpr:
				switch lockCallKind(m, info) {
				case "Lock", "RLock":
					if id := lockIDOf(m, info, fn); id != "" {
						if rec {
							fn.acqs = append(fn.acqs, lockFlowAcq{
								id: id, node: m,
								held: append([]heldLock(nil), s.held...),
							})
						}
						s.acquire(id, m)
					}
					return false
				case "Unlock", "RUnlock":
					if id := lockIDOf(m, info, fn); id != "" {
						s.release(id)
						releases[id] = true
					}
					return false
				}
				if rec && len(s.held) > 0 && fn.heldCall[m] == nil {
					fn.heldCall[m] = append([]heldLock(nil), s.held...)
				}
			default:
				if rec && blockSites[m] && len(s.held) > 0 && fn.heldBlock[m] == nil {
					fn.heldBlock[m] = append([]heldLock(nil), s.held...)
				}
			}
			return true
		})
	}

	fns := flowFns[lockFlowState]{
		init:  lockFlowState{deferred: make(map[string]bool)},
		clone: cloneLockFlow,
		join: func(dst, src lockFlowState) (lockFlowState, bool) {
			changed := false
			for _, h := range src.held {
				found := false
				for i, d := range dst.held {
					if d.id == h.id {
						found = true
						if h.acq.Pos() < d.acq.Pos() {
							dst.held[i].acq = h.acq
							changed = true
						}
					}
				}
				if !found {
					dst.held = append(dst.held, h)
					changed = true
				}
			}
			if changed {
				sortHeld(dst.held)
			}
			for id := range src.deferred {
				if !dst.deferred[id] {
					dst.deferred[id] = true
					changed = true
				}
			}
			return dst, changed
		},
		transfer: func(b *cfgBlock, s lockFlowState) lockFlowState {
			for _, n := range b.nodes {
				apply(n, &s)
			}
			for _, m := range b.marks {
				if rec && blockSites[m] && len(s.held) > 0 && fn.heldBlock[m] == nil {
					fn.heldBlock[m] = append([]heldLock(nil), s.held...)
				}
			}
			return s
		},
	}
	in, reached := solveForward(g, fns)

	// Replay with recording on, blocks in ID order, for deterministic
	// fact collection.
	rec = true
	fn.heldCall = make(map[*ast.CallExpr][]heldLock)
	fn.heldBlock = make(map[ast.Node][]heldLock)
	for _, b := range g.blocks {
		if !reached[b.id] {
			continue
		}
		s := cloneLockFlow(in[b.id])
		for _, n := range b.nodes {
			apply(n, &s)
		}
		for _, m := range b.marks {
			if blockSites[m] && len(s.held) > 0 && fn.heldBlock[m] == nil {
				fn.heldBlock[m] = append([]heldLock(nil), s.held...)
			}
		}
	}

	// Leaks: a lock this body releases on some path but still holds at
	// a normal return on another. Bodies that never release (explicit
	// lock-helper wrappers) are the caller's protocol, not a leak.
	if reached[g.exit.id] {
		exit := in[g.exit.id]
		for _, h := range exit.held {
			if releases[h.id] && !exit.deferred[h.id] {
				fn.lockLeaks = append(fn.lockLeaks, lockFlowLeak{id: h.id, acq: h.acq})
			}
		}
	}
}

// scanCall classifies one call expression's allocation behaviour:
// builtins (make/new/append) and conversions. Plain call edges are
// handled by the caller.
func (ip *interp) scanCall(fn *interpFn, call *ast.CallExpr, info *types.Info, inPanic bool, reused map[types.Object]bool, mapIdxOK map[ast.Node]bool, addAlloc func(ast.Node, string)) {
	if inPanic {
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				addAlloc(call, "make allocates")
			case "new":
				addAlloc(call, "new allocates")
			case "append":
				if len(call.Args) > 0 && !bufferRooted(call.Args[0], info, reused) {
					addAlloc(call, "append to a fresh (non-reused) buffer may allocate")
				}
			}
			return
		}
	}
	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := exprType(info, call.Args[0])
		if src == nil {
			return
		}
		if types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()) {
			addAlloc(call, "conversion to interface boxes its operand")
			return
		}
		if stringBytesConversion(dst, src) && !mapIdxOK[call] {
			addAlloc(call, "string conversion copies and allocates")
		}
	}
}

// mapIndexStringLookups collects the string([]byte) conversion calls
// used directly as the key of a map *read* (m[string(b)], including the
// comma-ok form). The compiler special-cases these lookups to avoid
// materializing the string, so hotalloc accepts them; conversions used
// as an assignment target's key (m[string(b)] = v) intern the key and
// are excluded.
func mapIndexStringLookups(body ast.Node, info *types.Info) map[ast.Node]bool {
	// Index expressions written to (assignment LHS, ++/--): their key
	// conversion still allocates.
	written := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				written[unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			written[unparen(n.X)] = true
		}
		return true
	})
	ok := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ix, isIx := n.(*ast.IndexExpr)
		if !isIx || written[ix] {
			return true
		}
		mt, isMap := exprTypeUnderlying(info, ix.X).(*types.Map)
		if !isMap || !isStringType(mt.Key()) {
			return true
		}
		call, isCall := unparen(ix.Index).(*ast.CallExpr)
		if !isCall || len(call.Args) != 1 {
			return true
		}
		tv, found := info.Types[call.Fun]
		if !found || !tv.IsType() || !isStringType(tv.Type) {
			return true
		}
		src := exprType(info, call.Args[0])
		if src != nil && stringBytesConversion(tv.Type, src) {
			ok[call] = true
		}
		return true
	})
	return ok
}

// exprTypeUnderlying is exprType's underlying-type form.
func exprTypeUnderlying(info *types.Info, e ast.Expr) types.Type {
	t := exprType(info, e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// stringBytesConversion reports string <-> []byte / []rune conversions,
// which copy.
func stringBytesConversion(dst, src types.Type) bool {
	isStr := func(t types.Type) bool { return isStringType(t) }
	isByteRuneSlice := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		if !ok {
			return false
		}
		return b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32
	}
	return (isStr(dst) && isByteRuneSlice(src)) || (isByteRuneSlice(dst) && isStr(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isBuiltinUse reports whether the identifier resolves to a predeclared
// builtin (and is not shadowed by a user declaration).
func isBuiltinUse(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// skippedNodes collects subtrees the scanners must not descend into:
// the bodies of goroutine-spawned function literals (they run on
// another goroutine; the go statement itself is the caller's cost).
func skippedNodes(body ast.Node) map[ast.Node]bool {
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
			skip[lit.Body] = true
		}
		return true
	})
	return skip
}

// paramObjects collects the declaration's parameter and receiver
// objects (callers own buffers passed in, so appends to them are the
// strconv.AppendInt idiom, amortized by the caller).
func paramObjects(fd *ast.FuncDecl, info *types.Info) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				objs[obj] = true
			}
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			addField(f)
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			addField(f)
		}
	}
	// Function-literal parameters count too: the closure's caller owns
	// those buffers.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Type.Params != nil {
			for _, f := range lit.Type.Params.List {
				addField(f)
			}
		}
		return true
	})
	return objs
}

// bufferRooted reports whether e denotes a reused buffer: an expression
// rooted in a struct field (retained capacity across calls), a
// parameter (caller-owned), or a local assigned from either.
func bufferRooted(e ast.Expr, info *types.Info, reused map[types.Object]bool) bool {
	e = unparen(e)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			// x.f — a field (or package var) backed buffer.
			return true
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			obj := identObj(info, x)
			return obj != nil && reused[obj]
		default:
			return false
		}
	}
}

// reusedBuffers computes the locals that alias a reused buffer: params
// and receivers seed the set, and assignment from a buffer-rooted
// expression (including append results) extends it, iterated to a
// fixpoint for loop-carried chains.
func reusedBuffers(body ast.Node, info *types.Info, params map[types.Object]bool) map[types.Object]bool {
	reused := make(map[types.Object]bool, len(params))
	for obj := range params {
		reused[obj] = true
	}
	rooted := func(e ast.Expr) bool {
		e = unparen(e)
		if call, ok := e.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
					return bufferRooted(call.Args[0], info, reused)
				}
			}
			return false
		}
		return bufferRooted(e, info, reused)
	}
	add := func(id *ast.Ident) bool {
		if id == nil || id.Name == "_" {
			return false
		}
		obj := identObj(info, id)
		if obj == nil || reused[obj] {
			return false
		}
		reused[obj] = true
		return true
	}
	for round := 0; round < 8; round++ {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if !rooted(rhs) {
						continue
					}
					if id, ok := unparen(n.Lhs[i]).(*ast.Ident); ok && add(id) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, v := range n.Values {
					if rooted(v) && add(n.Names[i]) {
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return reused
}

// acceptedFuncLit reports whether a function literal is in a position
// the compiler stack-allocates in practice: immediately invoked, or
// passed directly as a call argument (a non-escaping parameter). The
// runtime zero-alloc tests back this acceptance; stored, returned or
// spawned closures stay flagged.
func acceptedFuncLit(body ast.Node, lit *ast.FuncLit) bool {
	accepted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if unparen(call.Fun) == lit {
			accepted = true // immediately invoked
			return false
		}
		for _, arg := range call.Args {
			if unparen(arg) == lit {
				accepted = true
				return false
			}
		}
		return true
	})
	return accepted
}

// enclosingCommStmt is a helper for receive expressions used directly
// as a select comm statement (`case <-ch:` parses the receive as the
// comm's expression); the caller passes the known comm set.
func enclosingCommStmt(n ast.Node, comms map[ast.Node]bool) ast.Node {
	// A receive in a comm clause appears as an ExprStmt or AssignStmt
	// comm; match by position since we only have the expression here.
	for c := range comms {
		if c.Pos() <= n.Pos() && n.End() <= c.End() {
			return c
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Call resolution.

// resolveCall classifies a call expression. ok=false means the
// expression is not a function call at all (conversion, builtin,
// immediately-invoked literal — each handled elsewhere).
func resolveCall(info *types.Info, call *ast.CallExpr) (callSite, bool) {
	fun := unparen(call.Fun)
	// Generic instantiation: G[int](x) / m[K,V](x).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := info.Types[ix.X]; ok && !tv.IsType() {
			fun = unparen(ix.X)
		}
	case *ast.IndexListExpr:
		fun = unparen(ix.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch o := info.Uses[f].(type) {
		case *types.Func:
			return callSite{call: call, callee: funcOrigin(o)}, true
		case *types.Builtin:
			return callSite{}, false
		case *types.TypeName:
			return callSite{}, false // conversion
		case *types.Var:
			return callSite{call: call, dynamic: true}, true // func-valued variable
		case *types.Nil:
			return callSite{}, false
		}
		if tv, ok := info.Types[f]; ok && tv.IsType() {
			return callSite{}, false
		}
		return callSite{call: call, dynamic: true}, true
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if m, ok := sel.Obj().(*types.Func); ok {
				if recvIsInterface(m) {
					return callSite{call: call, dynamic: true}, true
				}
				return callSite{call: call, callee: funcOrigin(m)}, true
			}
			return callSite{call: call, dynamic: true}, true // func-typed field
		}
		switch o := info.Uses[f.Sel].(type) {
		case *types.Func:
			return callSite{call: call, callee: funcOrigin(o)}, true
		case *types.TypeName:
			return callSite{}, false // qualified conversion
		case *types.Var:
			return callSite{call: call, dynamic: true}, true
		}
		return callSite{call: call, dynamic: true}, true
	case *ast.FuncLit:
		return callSite{}, false // immediately invoked; body scanned inline
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return callSite{}, false
	}
	return callSite{call: call, dynamic: true}, true
}

func funcOrigin(f *types.Func) *types.Func {
	if o := f.Origin(); o != nil {
		return o
	}
	return f
}

func recvIsInterface(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return types.IsInterface(t.Underlying())
}

// externName renders a callee outside the run for messages:
// "time.Now", "(*sync.WaitGroup).Wait".
func externName(obj *types.Func) string {
	if obj == nil {
		return "an unknown function"
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if rn := recvShortName(sig); rn != "" {
			return rn + "." + obj.Name()
		}
	}
	if obj.Pkg() != nil {
		return shortPkg(obj.Pkg().Path()) + "." + obj.Name()
	}
	return obj.Name()
}

// externKey renders the allocFree-table key of a callee:
// "strconv.AppendInt" (functions) or "sync.WaitGroup.Wait" (methods,
// pointer receivers spelled without the star).
func externKey(obj *types.Func) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if rn := recvBareName(sig); rn != "" {
			return obj.Pkg().Path() + "." + rn + "." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func recvBareName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func recvShortName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return shortPkg(obj.Pkg().Path()) + "." + obj.Name()
		}
		return obj.Name()
	}
	return ""
}

// externEffect returns the effects of a callee with no body in the run,
// from a small curated table of standard-library sources. Unknown
// externals contribute no effects (the conservative direction for the
// *reporting* checks differs per check and is handled there).
func externEffect(obj *types.Func, ip *interp) effect {
	if obj == nil || obj.Pkg() == nil {
		return 0
	}
	if ip != nil && ip.fns[obj] != nil {
		return 0 // in-run; propagated by the fixpoint instead
	}
	sig, _ := obj.Type().(*types.Signature)
	recv := ""
	if sig != nil && sig.Recv() != nil {
		recv = recvBareName(sig)
	}
	switch obj.Pkg().Path() {
	case "time":
		if recv == "" {
			switch obj.Name() {
			case "Now", "Since", "Until":
				return effTime
			case "Sleep":
				return effBlock
			}
		}
	case "math/rand", "math/rand/v2":
		if recv == "" && !globalRandConstructors[obj.Name()] {
			return effRand
		}
	case "sync":
		if (recv == "WaitGroup" || recv == "Cond") && obj.Name() == "Wait" {
			return effBlock
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// Lock identity.

// lockIDOf canonicalizes the receiver of a Lock/RLock call. Field
// locks are identified by their owning named type ("<pkg>.<Type>.<field>"
// — every instance of the type shares one ordering discipline),
// package-level locks by the variable path, locals by function scope.
func lockIDOf(call *ast.CallExpr, info *types.Info, fn *interpFn) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return lockExprID(sel.X, info, fn)
}

func lockExprID(e ast.Expr, info *types.Info, fn *interpFn) string {
	e = unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		// base.field: prefer the named type of base; fall back to a
		// package-level variable path.
		if t := exprType(info, x.X); t != nil {
			if tn := namedTypePath(t); tn != "" {
				return tn + "." + x.Sel.Name
			}
		}
		if id, ok := unparen(x.X).(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					return v.Pkg().Path() + "." + v.Name() + "." + x.Sel.Name
				}
				if pn, ok := obj.(*types.PkgName); ok {
					return pn.Imported().Path() + "." + x.Sel.Name
				}
			}
		}
		// Nested unnamed structure: qualify with the root identifier.
		if root := rootIdent(x.X); root != nil {
			return fn.pkg.Path + "." + root.Name + "." + x.Sel.Name
		}
		return ""
	case *ast.Ident:
		obj := identObj(info, x)
		if obj == nil {
			return ""
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return fn.qname + "#" + x.Name // function-local mutex
	}
	return ""
}

// namedTypePath renders "<import path>.<TypeName>" of t, peeling one
// pointer.
func namedTypePath(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil {
		return ""
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// shortLockID renders a lock ID for messages: the import path prefix is
// reduced to its base ("repro/internal/serve.pendingPool.mu" ->
// "serve.pendingPool.mu").
func shortLockID(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// ---------------------------------------------------------------------
// Fixpoints.

// fixpoint joins callee effects, lock sets and sink reachability up the
// call graph until stable. Dynamic and spawned edges propagate nothing
// (see the package comment for the polarity argument); panic-path edges
// propagate normally — an effect on a failure path is still an effect.
func (ip *interp) fixpoint() {
	for {
		changed := false
		for _, fn := range ip.order {
			eff := fn.eff | fn.intr
			for _, cs := range fn.calls {
				if cs.dynamic || cs.spawned {
					continue
				}
				if callee := ip.fnOf(cs.callee); callee != nil {
					eff |= callee.eff
					for id := range callee.locks {
						if !fn.locks[id] {
							fn.locks[id] = true
							changed = true
						}
					}
					if (callee.sink || callee.reaches) && !fn.reaches {
						fn.reaches = true
						changed = true
					}
				} else {
					eff |= externEffect(cs.callee, ip)
					if isReplaySinkObj(cs.callee) && !fn.reaches {
						fn.reaches = true
						changed = true
					}
				}
			}
			if eff != fn.eff {
				fn.eff = eff
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// sinkWitness fills fn.sinkSite/sinkName deterministically: the first
// call site in source order that leads to a replay sink.
func (ip *interp) sinkWitness(fn *interpFn) (ast.Node, string) {
	if fn.sinkSite != nil {
		return fn.sinkSite, fn.sinkName
	}
	for _, cs := range fn.calls {
		if cs.dynamic || cs.spawned {
			continue
		}
		if callee := ip.fnOf(cs.callee); callee != nil {
			if callee.sink {
				fn.sinkSite, fn.sinkName = cs.call, callee.short
				return fn.sinkSite, fn.sinkName
			}
			if callee.reaches {
				_, name := ip.sinkWitness(callee)
				fn.sinkSite, fn.sinkName = cs.call, name
				return fn.sinkSite, fn.sinkName
			}
		} else if isReplaySinkObj(cs.callee) {
			fn.sinkSite, fn.sinkName = cs.call, externName(cs.callee)
			return fn.sinkSite, fn.sinkName
		}
	}
	return nil, ""
}
