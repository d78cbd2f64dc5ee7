// The ownxfer check: pooled records transfer ownership exactly once
// along every path and never outlive their reuse stamp.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// OwnXfer verifies the protocol of pooled free-list records, flow-
// sensitively over the CFG (cfg.go), driven by the validated
// ownerXferTable (annotations.go).
//
// The engine recycles subtask records through a free list, and the
// serving layer recycles mailbox records the same way. Calendar events
// that reference a subtask capture its reuse stamp at push time and
// are invalidated when the record is recycled; a mailbox record moves
// across the handler/shard goroutine boundary and back — the handler
// acquires it, submits it into the shard's mailbox, blocks on the
// record's reply channel, and releases it after reading the reply. A
// pointer that dangles into a recycled record, or a handler touching a
// record while the shard holds it, silently corrupts a later task's
// schedule or the byte-exact replay story without ever failing a test.
//
// ownxfer tracks each record's may-state along every path of the
// owning function:
//
//   - Records are born owned at an Acquire call result or a receive
//     from a channel of records; parameters of the record type enter
//     owned (a borrow — the caller enforces its own protocol). Copies
//     alias the record: every alias shares its fate.
//   - Ownership leaves through a send into a channel, a send on a
//     channel rooted at the record itself (the reply hand-back), a
//     registered transfer function, a return of the record, or a store
//     into a field or container (the record is parked there).
//     Conditional transfers (Shard.submit, Server.exchange) bind the
//     outcome to the callee's bool result and the state is refined
//     along the branch edges that test it.
//   - A receive from a channel rooted at the record re-acquires it
//     (reading the reply channel is the sanctioned hand-back).
//
// Violations:
//
//  1. A composite literal of a registered sink struct (tevent) that
//     sets the pointer field without also setting the stamp field from
//     that pointer's stamp.
//  2. A record born at Acquire stored anywhere but the registered owner
//     fields (the subtask chain, the free list) — another field, or an
//     element of a container held in a field — or captured by a
//     closure that is not invoked in place.
//  3. A use of a record that was freed on some path reaching the use
//     (a free on one branch, or at the bottom of a loop iteration,
//     poisons the join), or that was handed off on every such path;
//     releasing a record twice or after a hand-off; and a record born
//     from Acquire or a receive that can reach a normal return still
//     owned (a pool leak). Paths ending in panic are exempt — the
//     process is dying.
//
// The analysis is intraprocedural: records received as parameters or
// read from fields are trusted to already be owned, and a callee's
// effect on a record is known only through the transfer table.
func OwnXfer() *Analyzer {
	return &Analyzer{
		Name: "ownxfer",
		Doc:  "pooled records transfer ownership exactly once per path and never escape unstamped: no use after send/free, no double free, no leaked acquire, no store outside the owner fields (annotation table)",
		AppliesTo: func(pkgPath string) bool {
			return len(ownXferSpecsFor(pkgPath)) > 0
		},
		Run: runOwnXfer,
	}
}

func runOwnXfer(p *Pass) []Diagnostic {
	specs := ownXferSpecsFor(p.Pkg.Path)
	if len(specs) == 0 {
		return nil
	}
	var diags []Diagnostic
	specs = validateOwnXferSpecs(p, specs, &diags)
	for i := range specs {
		spec := &specs[i]
		c := &ownxferChecker{p: p, spec: spec, xfers: make(map[string]*ownXferFunc)}
		for j := range spec.Transfers {
			c.xfers[spec.Transfers[j].Func] = &spec.Transfers[j]
		}
		for _, fi := range p.Funcs() {
			// Rule 1 is purely syntactic on the literal, so it also
			// catches pointers the flow cannot see (e.g. a chain head
			// stored into a calendar event).
			for _, sink := range spec.Sinks {
				p.checkSinkLiterals(fi.Decl.Body, spec, sink, &diags)
			}
			c.checkFunc(fi, &diags)
		}
	}
	return diags
}

// ---------------------------------------------------------------------
// Per-record flow state.

// ownBits is the may-state powerset of one tracked record: a bit is set
// when the fact holds on at least one path reaching the point.
type ownBits uint8

const (
	ownOwned  ownBits = 1 << iota // this function owns the record
	ownFreed                      // released back to the pool
	ownXfered                     // sent or handed off to another owner
	ownStored                     // parked in an owner field/container
)

// ownState is the flow state of one tracked record. Aliases of a
// record (q := r) share one *ownState, so freeing, handing off or
// parking the record through any alias applies to every alias.
type ownState struct {
	bits     ownBits
	acquired bool         // born in this function: the leak rule applies
	fresh    bool         // born at an Acquire call: the escape rule applies
	acqNode  ast.Node     // birth site, anchors leak reports
	site     ast.Node     // earliest discharge site (free/hand-off)
	siteDesc string       // how it was discharged, for messages
	deferRel bool         // a defer Release(x) is pending
	condVar  types.Object // bool variable carrying a conditional outcome
	condOwn  bool         // caller owns iff condVar == condOwn
}

type ownMap map[types.Object]*ownState

// cloneOwnMap deep-copies s, keeping aliases that share a state in s
// sharing one copy.
func cloneOwnMap(s ownMap) ownMap {
	out := make(ownMap, len(s))
	copies := make(map[*ownState]*ownState, len(s))
	for k, v := range s {
		out[k] = copyShared(v, copies)
	}
	return out
}

// copyShared returns the one copy of st recorded in copies.
func copyShared(st *ownState, copies map[*ownState]*ownState) *ownState {
	if cp := copies[st]; cp != nil {
		return cp
	}
	cp := *st
	copies[st] = &cp
	return &cp
}

// mergeOwn joins src into dst (may-union), reporting change. Earliest
// positions win for the witness nodes so messages are deterministic.
func mergeOwn(dst, src *ownState) bool {
	changed := false
	if nb := dst.bits | src.bits; nb != dst.bits {
		dst.bits = nb
		changed = true
	}
	if src.acquired && !dst.acquired {
		dst.acquired = true
		changed = true
	}
	if src.fresh && !dst.fresh {
		dst.fresh = true
		changed = true
	}
	if src.deferRel && !dst.deferRel {
		dst.deferRel = true
		changed = true
	}
	if src.acqNode != nil && (dst.acqNode == nil || src.acqNode.Pos() < dst.acqNode.Pos()) {
		dst.acqNode = src.acqNode
		changed = true
	}
	if src.site != nil && (dst.site == nil || src.site.Pos() < dst.site.Pos()) {
		dst.site = src.site
		dst.siteDesc = src.siteDesc
		changed = true
	}
	if dst.condVar != src.condVar && dst.condVar != nil {
		// Outcome bindings that disagree across paths degrade to the
		// unresolved owned-or-transferred state.
		dst.condVar = nil
		changed = true
	}
	return changed
}

// ---------------------------------------------------------------------
// The checker.

// ownCand kinds, deduplicated per (object, kind).
const (
	candUseAfterFree = iota
	candUseAfterXfer
	candDoubleFree
	candFreeAfterXfer
	candLeak
	candEscape // rule 1-2 findings: deduplicated per site, not per object
)

type ownCand struct {
	obj  types.Object
	kind int
	node ast.Node
	msg  string
	args []any
}

type ownxferChecker struct {
	p     *Pass
	spec  *ownXferSpec
	xfers map[string]*ownXferFunc

	record bool // replay phase: collect candidates
	cands  []ownCand
}

func (c *ownxferChecker) info() *types.Info { return c.p.Pkg.Info }

func (c *ownxferChecker) checkFunc(fi *funcInfo, diags *[]Diagnostic) {
	// Skip functions that cannot touch the protocol at all: no record-
	// typed values and no pool/transfer calls means no state to track.
	if !c.mentionsProtocol(fi) {
		return
	}
	g := c.p.Pkg.funcCFG(fi.Decl)
	init := make(ownMap)
	c.seedParams(fi, init)

	fns := flowFns[ownMap]{
		init:  init,
		clone: cloneOwnMap,
		join: func(dst, src ownMap) (ownMap, bool) {
			changed := false
			var copies map[*ownState]*ownState
			for obj, st := range src {
				if d, ok := dst[obj]; ok {
					changed = mergeOwn(d, st) || changed
					continue
				}
				if copies == nil {
					copies = make(map[*ownState]*ownState)
				}
				dst[obj] = copyShared(st, copies)
				changed = true
			}
			return dst, changed
		},
		transfer: func(b *cfgBlock, s ownMap) ownMap {
			for _, n := range b.nodes {
				c.node(n, s)
			}
			return s
		},
		refine: c.refine,
	}
	c.record, c.cands = false, nil
	in, reached := solveForward(g, fns)

	// Replay with recording on: every reached block once, in ID order,
	// from its fixpoint in-state.
	c.record = true
	for _, b := range g.blocks {
		if !reached[b.id] || in[b.id] == nil {
			continue
		}
		s := cloneOwnMap(in[b.id])
		for _, n := range b.nodes {
			c.node(n, s)
		}
	}

	// Leaks: records born here that can reach a normal return still
	// owned, with no deferred release pending — reported once per
	// record, under its first-declared alias.
	if exit := in[g.exit.id]; reached[g.exit.id] && exit != nil {
		objs := make([]types.Object, 0, len(exit))
		for obj := range exit {
			objs = append(objs, obj)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
		seen := make(map[*ownState]bool)
		for _, obj := range objs {
			st := exit[obj]
			if !seen[st] && st.acquired && st.bits&ownOwned != 0 && !st.deferRel {
				c.cand(obj, candLeak, st.acqNode,
					"pooled %s %s acquired here is still owned when %s returns on some path; every acquire path must release or hand off the record exactly once",
					c.spec.Elem, obj.Name(), fi.Name)
			}
			seen[st] = true
		}
	}
	c.emit(diags)
}

// mentionsProtocol is a cheap syntactic pre-filter: the body names the
// record type, the pool functions, or a transfer function.
func (c *ownxferChecker) mentionsProtocol(fi *funcInfo) bool {
	found := false
	ast.Inspect(fi.Decl, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch id.Name {
		case c.spec.Elem, c.spec.Acquire, c.spec.Release:
			found = true
		default:
			for name := range c.xfers {
				if i := len(name) - len(id.Name); i >= 0 && name[i:] == id.Name &&
					(i == 0 || name[i-1] == '.') {
					found = true
				}
			}
		}
		return !found
	})
	if found {
		return true
	}
	// A parameter or receiver of the record type also opts in.
	tmp := make(ownMap)
	c.seedParams(fi, tmp)
	return len(tmp) > 0
}

// seedParams enters every parameter and receiver of the record type as
// owned-but-borrowed (no leak obligation: the caller's protocol covers
// disposal unless this function disposes of it itself).
func (c *ownxferChecker) seedParams(fi *funcInfo, s ownMap) {
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			obj := c.info().Defs[name]
			if obj == nil {
				continue
			}
			if c.isElemPtr(obj.Type()) {
				s[obj] = &ownState{bits: ownOwned, acqNode: name}
			}
		}
	}
	if fi.Decl.Recv != nil {
		for _, f := range fi.Decl.Recv.List {
			addField(f)
		}
	}
	if fi.Decl.Type.Params != nil {
		for _, f := range fi.Decl.Type.Params.List {
			addField(f)
		}
	}
}

// isElemPtr reports whether t is *Elem for the spec's record type.
func (c *ownxferChecker) isElemPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	return namedTypeName(ptr.Elem(), c.p.Pkg.Types) == c.spec.Elem
}

// isElemChan reports whether t is a channel of *Elem.
func (c *ownxferChecker) isElemChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	return ok && c.isElemPtr(ch.Elem())
}

// xferOf resolves a call to its registered transfer entry, or nil.
func (c *ownxferChecker) xferOf(call *ast.CallExpr) *ownXferFunc {
	if len(c.xfers) == 0 {
		return nil
	}
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := c.info().Uses[id].(*types.Func)
	if !ok || fn.Pkg() != c.p.Pkg.Types {
		return nil
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rn := recvBareName(sig); rn != "" {
			name = rn + "." + name
		}
	}
	return c.xfers[name]
}

// trackedIdent returns the tracked object e denotes, when e is a plain
// identifier in the state.
func (c *ownxferChecker) trackedIdent(e ast.Expr, s ownMap) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := identObj(c.info(), id)
	if obj == nil {
		return nil
	}
	if _, ok := s[obj]; !ok {
		return nil
	}
	return obj
}

// trackedIn is trackedIdent extended through append(dst, x...): storing
// via append parks the appended record, not the container.
func (c *ownxferChecker) trackedIn(e ast.Expr, s ownMap) types.Object {
	e = unparen(e)
	if obj := c.trackedIdent(e, s); obj != nil {
		return obj
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltinUse(c.info(), id) {
			for _, arg := range call.Args[1:] {
				if obj := c.trackedIdent(arg, s); obj != nil {
					return obj
				}
			}
		}
	}
	return nil
}

// defOf returns the object a plain-ident assignment target denotes
// (through Defs for := and Uses for =), skipping the blank identifier.
func (c *ownxferChecker) defOf(e ast.Expr) types.Object {
	if e == nil {
		return nil
	}
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := c.info().Defs[id]; obj != nil {
		return obj
	}
	return c.info().Uses[id]
}

// clearCondBindings drops outcome bindings whose bool variable is
// being reassigned by as.
func (c *ownxferChecker) clearCondBindings(as *ast.AssignStmt, s ownMap) {
	for _, l := range as.Lhs {
		obj := c.defOf(l)
		if obj == nil {
			continue
		}
		for _, st := range s {
			if st.condVar == obj {
				st.condVar = nil
			}
		}
	}
}

// ---------------------------------------------------------------------
// Transfer function.

// node applies one block node to the state (shared between the solve
// and replay phases; candidates are recorded only when c.record).
func (c *ownxferChecker) node(n ast.Node, s ownMap) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.assign(n, s)
	case *ast.DeclStmt:
		c.decl(n, s)
	case *ast.SendStmt:
		c.send(n, s)
	case *ast.ReturnStmt:
		c.scan(n, s, nil)
		for _, r := range n.Results {
			if obj := c.trackedIdent(r, s); obj != nil {
				st := s[obj]
				st.bits = ownXfered
				st.site, st.siteDesc = n, "returned to the caller"
				st.condVar = nil
			}
		}
	case *ast.DeferStmt:
		if c.p.callsPoolFunc(n.Call, c.spec.Release) {
			if obj, _ := c.releaseArg(n.Call, s); obj != nil {
				s[obj].deferRel = true
				return
			}
		}
		// The deferred call's arguments are evaluated now; the call
		// itself runs at return and is not modelled.
		for _, a := range n.Call.Args {
			c.scan(a, s, nil)
		}
	case *ast.RangeStmt:
		c.scan(n.X, s, nil)
		if obj := c.defOf(n.Key); obj != nil {
			delete(s, obj)
			if c.isElemChan(exprType(c.info(), n.X)) {
				s[obj] = &ownState{bits: ownOwned, acquired: true, acqNode: n}
			}
		}
		if obj := c.defOf(n.Value); obj != nil {
			delete(s, obj)
		}
	default:
		c.scan(n, s, nil)
	}
}

// assign handles the binding forms: acquire results, conditional
// transfers with a bound outcome, receives, alias copies, stores, and
// kills.
func (c *ownxferChecker) assign(as *ast.AssignStmt, s ownMap) {
	if len(as.Rhs) == 1 {
		rhs := unparen(as.Rhs[0])
		if call, ok := rhs.(*ast.CallExpr); ok {
			if c.p.callsPoolFunc(call, c.spec.Acquire) {
				c.scan(call, s, nil)
				c.clearCondBindings(as, s)
				c.killTargets(as, s)
				if obj := c.defOf(as.Lhs[0]); obj != nil {
					s[obj] = &ownState{bits: ownOwned, acquired: true, fresh: true, acqNode: call}
				}
				return
			}
			if xf := c.xferOf(call); xf != nil {
				tracked := c.xferArgs(call, s)
				c.scan(call, s, nil)
				c.clearCondBindings(as, s)
				var condObj types.Object
				if xf.Cond && xf.BoolResult < len(as.Lhs) {
					condObj = c.defOf(as.Lhs[xf.BoolResult])
				}
				c.killTargets(as, s)
				c.applyXfer(call, xf, tracked, condObj, s)
				return
			}
		}
		if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			c.scan(ue, s, nil) // performs the re-acquire for record-rooted channels
			c.clearCondBindings(as, s)
			c.killTargets(as, s)
			if c.isElemChan(exprType(c.info(), ue.X)) {
				if obj := c.defOf(as.Lhs[0]); obj != nil {
					s[obj] = &ownState{bits: ownOwned, acquired: true, acqNode: ue}
				}
			}
			return
		}
	}

	// General form: evaluate uses, then move states element-wise.
	for _, r := range as.Rhs {
		c.scan(r, s, nil)
	}
	for _, l := range as.Lhs {
		if _, ok := unparen(l).(*ast.Ident); !ok {
			c.scan(l, s, nil)
		}
	}
	c.clearCondBindings(as, s)

	var moved []*ownState
	if len(as.Lhs) == len(as.Rhs) {
		moved = make([]*ownState, len(as.Rhs))
		for i, r := range as.Rhs {
			obj := c.trackedIn(r, s)
			if obj == nil {
				continue
			}
			st := s[obj]
			if _, plain := unparen(as.Lhs[i]).(*ast.Ident); plain {
				moved[i] = st // an alias: it shares the record's fate
				continue
			}
			// Stored into a field, element or dereference: ownership
			// parks there, which rule 2 allows only in owner fields.
			if st.fresh {
				c.checkStore(as, obj, as.Lhs[i])
			}
			st.bits = ownStored
			st.condVar = nil
		}
	}
	c.killTargets(as, s)
	for i := range moved {
		if moved[i] == nil {
			continue
		}
		if obj := c.defOf(as.Lhs[i]); obj != nil {
			s[obj] = moved[i]
		}
	}
}

// killTargets deletes the state of every plain-ident assignment target.
func (c *ownxferChecker) killTargets(as *ast.AssignStmt, s ownMap) {
	for _, l := range as.Lhs {
		if obj := c.defOf(l); obj != nil {
			delete(s, obj)
		}
	}
}

// decl handles var declarations, seeding acquire-call initializers and
// aliasing record-valued ones.
func (c *ownxferChecker) decl(ds *ast.DeclStmt, s ownMap) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		c.scan(ds, s, nil)
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			c.scan(v, s, nil)
		}
		for i, nm := range vs.Names {
			obj := c.info().Defs[nm]
			if obj == nil || nm.Name == "_" {
				continue
			}
			delete(s, obj)
			if i >= len(vs.Values) {
				continue
			}
			if call, ok := unparen(vs.Values[i]).(*ast.CallExpr); ok && c.p.callsPoolFunc(call, c.spec.Acquire) {
				s[obj] = &ownState{bits: ownOwned, acquired: true, fresh: true, acqNode: call}
			} else if src := c.trackedIdent(vs.Values[i], s); src != nil {
				s[obj] = s[src]
			}
		}
	}
}

// send applies a channel send: sending a tracked record transfers it,
// and sending on a channel rooted at a tracked record (p.reply <- ...)
// hands the record back to the peer blocked on that channel.
func (c *ownxferChecker) send(st *ast.SendStmt, s ownMap) {
	c.scan(st.Chan, s, nil)
	c.scan(st.Value, s, nil)
	if obj := c.trackedIdent(st.Value, s); obj != nil {
		o := s[obj]
		o.bits = ownXfered
		o.site, o.siteDesc = st, "sent into a channel"
		o.condVar = nil
	}
	if ch := unparen(st.Chan); ch != nil {
		if _, plain := ch.(*ast.Ident); !plain {
			if root := rootIdent(ch); root != nil {
				if obj := identObj(c.info(), root); obj != nil {
					if o, ok := s[obj]; ok {
						o.bits = ownXfered
						o.site, o.siteDesc = st, "replied on its channel"
						o.condVar = nil
					}
				}
			}
		}
	}
}

// applyXfer discharges the tracked arguments of a transfer call.
func (c *ownxferChecker) applyXfer(call *ast.CallExpr, xf *ownXferFunc, tracked []types.Object, condObj types.Object, s ownMap) {
	for _, obj := range tracked {
		st := s[obj]
		if xf.Cond {
			st.bits = ownOwned | ownXfered
			st.site, st.siteDesc = call, "handed to "+xf.Func
			st.condVar = condObj
			st.condOwn = xf.OwnerWhen
		} else {
			st.bits = ownXfered
			st.site, st.siteDesc = call, "handed to "+xf.Func
			st.condVar = nil
		}
	}
}

// xferArgs lists the tracked plain-ident arguments of a call.
func (c *ownxferChecker) xferArgs(call *ast.CallExpr, s ownMap) []types.Object {
	var out []types.Object
	for _, a := range call.Args {
		if obj := c.trackedIdent(a, s); obj != nil {
			out = append(out, obj)
		}
	}
	return out
}

// scan walks an evaluated subtree: generic uses are checked against the
// state, and release/transfer/re-acquire operations nested in
// expression position are applied. Function-literal bodies are scanned
// for uses only — the literal runs elsewhere, so it must not mutate
// this flow's state — and, unless the literal is invoked in place, for
// captured fresh records (rule 2).
func (c *ownxferChecker) scan(n ast.Node, s ownMap, exempt map[types.Object]bool) {
	if n == nil {
		return
	}
	info := c.info()
	reacq := make(map[types.Object]bool)
	// The literal called right here, and the one a go statement spawns
	// (which escapes although it is called).
	var inPlace, spawned *ast.FuncLit
	walkEvaluated(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			spawned, _ = unparen(m.Call.Fun).(*ast.FuncLit)
		case *ast.FuncLit:
			// Only the first fresh record a closure captures is named.
			checked := m == inPlace
			ast.Inspect(m.Body, func(mm ast.Node) bool {
				if id, ok := mm.(*ast.Ident); ok {
					checked = checked || c.captures(m, id, s)
					c.useIdent(id, s, exempt, reacq)
				}
				return true
			})
			return false
		case *ast.CallExpr:
			if lit, ok := unparen(m.Fun).(*ast.FuncLit); ok && lit != spawned {
				inPlace = lit
			}
			if c.p.callsPoolFunc(m, c.spec.Release) {
				c.releaseCall(m, s)
				return false
			}
			if xf := c.xferOf(m); xf != nil {
				tracked := c.xferArgs(m, s)
				for _, a := range m.Args {
					c.scan(a, s, exempt)
				}
				c.applyXfer(m, xf, tracked, nil, s)
				return false
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				ch := unparen(m.X)
				if _, plain := ch.(*ast.Ident); !plain {
					if root := rootIdent(ch); root != nil {
						if obj := identObj(info, root); obj != nil {
							if st, ok := s[obj]; ok {
								// Receiving from the record's own channel is
								// the sanctioned hand-back: the record is
								// owned again from here on.
								st.bits = ownOwned
								st.condVar = nil
								reacq[obj] = true
							}
						}
					}
				}
			}
		case *ast.Ident:
			c.useIdent(m, s, exempt, reacq)
		}
		return true
	})
}

// useIdent applies the use rule: touching a record that was freed on
// some path reaching here, or handed off on every such path (a
// conditional hand-off leaves it owned until the branch resolves).
func (c *ownxferChecker) useIdent(id *ast.Ident, s ownMap, exempt, reacq map[types.Object]bool) {
	obj := c.info().Uses[id]
	if obj == nil || exempt[obj] || reacq[obj] {
		return
	}
	st, ok := s[obj]
	switch {
	case !ok:
	case st.bits&ownFreed != 0:
		c.cand(obj, candUseAfterFree, id,
			"pooled %s %s used after %s released it (%s); the record may already be recycled",
			c.spec.Elem, obj.Name(), c.spec.Release, c.sitePos(st))
	case st.bits&(ownOwned|ownXfered) == ownXfered:
		c.cand(obj, candUseAfterXfer, id,
			"pooled %s %s used after it was %s (%s); the new owner may be touching it concurrently",
			c.spec.Elem, obj.Name(), st.siteDesc, c.sitePos(st))
	}
}

// captures applies rule 2 to id inside a closure that is not invoked in
// place, reporting whether id names a fresh record (which the closure
// then keeps alive beyond the slot).
func (c *ownxferChecker) captures(lit *ast.FuncLit, id *ast.Ident, s ownMap) bool {
	obj := c.info().Uses[id]
	if st, ok := s[obj]; !ok || !st.fresh {
		return false
	}
	c.cand(obj, candEscape, lit,
		"pooled %s pointer %s captured by a closure that may outlive the slot; pass the (pointer, stamp) pair instead",
		c.spec.Elem, obj.Name())
	return true
}

// checkStore applies rule 2 to a store of a fresh record into lhs: only
// the registered owner fields may hold it, directly or as an element.
func (c *ownxferChecker) checkStore(as *ast.AssignStmt, obj types.Object, lhs ast.Expr) {
	ix, isElem := unparen(lhs).(*ast.IndexExpr)
	if isElem {
		lhs = ix.X
	}
	sel, ok := unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch name := c.p.fieldQualName(sel); {
	case name == "" || slices.Contains(c.spec.OwnerFields, name):
	case isElem:
		c.cand(obj, candEscape, as,
			"pooled %s pointer stored into element of %s, which outlives the slot without a reuse-stamp guard",
			c.spec.Elem, name)
	default:
		c.cand(obj, candEscape, as,
			"pooled %s pointer stored into %s, which outlives the slot without a reuse-stamp guard (owner fields: %s)",
			c.spec.Elem, name, qualifyList(c.spec.OwnerFields))
	}
}

// releaseArg finds the released record among a Release call's
// arguments: the first tracked plain-ident argument of the record type.
func (c *ownxferChecker) releaseArg(call *ast.CallExpr, s ownMap) (types.Object, int) {
	for i, a := range call.Args {
		if obj := c.trackedIdent(a, s); obj != nil && c.isElemPtr(obj.Type()) {
			return obj, i
		}
	}
	return nil, -1
}

// releaseCall applies Release(x): double frees and frees of handed-off
// records are flagged with dedicated messages; the state becomes freed
// either way.
func (c *ownxferChecker) releaseCall(call *ast.CallExpr, s ownMap) {
	obj, argIdx := c.releaseArg(call, s)
	for i, a := range call.Args {
		if i == argIdx {
			continue // the released record itself is not a generic use
		}
		c.scan(a, s, nil)
	}
	if obj == nil {
		return
	}
	st := s[obj]
	if st.bits&ownOwned == 0 {
		switch {
		case st.bits&ownFreed != 0:
			c.cand(obj, candDoubleFree, call,
				"pooled %s %s released twice (first %s); a double free corrupts the free list",
				c.spec.Elem, obj.Name(), c.sitePos(st))
		case st.bits&ownXfered != 0:
			c.cand(obj, candFreeAfterXfer, call,
				"pooled %s %s released after it was %s (%s); the new owner will also release it",
				c.spec.Elem, obj.Name(), st.siteDesc, c.sitePos(st))
		}
	}
	st.bits = ownFreed
	st.site, st.siteDesc = call, c.spec.Release
	st.condVar = nil
}

// sitePos renders the discharge site position for messages.
func (c *ownxferChecker) sitePos(st *ownState) string {
	if st.site == nil {
		return "earlier"
	}
	pos := c.p.Pkg.Fset.Position(st.site.Pos())
	return fmt.Sprintf("%s:%d", trimPath(pos.Filename), pos.Line)
}

// ---------------------------------------------------------------------
// Branch refinement.

// refine sharpens conditional-transfer outcomes along the true/false
// edges of a branch testing the outcome: `if !sh.submit(p)` directly,
// or `ok := ...; if !ok` through the bound variable.
func (c *ownxferChecker) refine(b *cfgBlock, e cfgEdge, s ownMap) ownMap {
	if b.cond == nil || (e.kind != edgeTrue && e.kind != edgeFalse) {
		return s
	}
	cond := unparen(b.cond)
	neg := false
	if ue, ok := cond.(*ast.UnaryExpr); ok && ue.Op == token.NOT {
		neg = true
		cond = unparen(ue.X)
	}
	condVal := e.kind == edgeTrue
	if neg {
		condVal = !condVal
	}
	if call, ok := cond.(*ast.CallExpr); ok {
		xf := c.xferOf(call)
		if xf == nil || !xf.Cond {
			return s
		}
		tracked := c.xferArgs(call, s)
		if len(tracked) == 0 {
			return s
		}
		out := cloneOwnMap(s)
		for _, obj := range tracked {
			c.resolveCond(out[obj], condVal == xf.OwnerWhen)
		}
		return out
	}
	if id, ok := cond.(*ast.Ident); ok {
		vobj := identObj(c.info(), id)
		if vobj == nil {
			return s
		}
		var out ownMap
		for obj, st := range s {
			if st.condVar != vobj {
				continue
			}
			if out == nil {
				out = cloneOwnMap(s)
			}
			c.resolveCond(out[obj], condVal == st.condOwn)
		}
		if out != nil {
			return out
		}
	}
	return s
}

// resolveCond collapses an owned-or-transferred state to the branch's
// outcome.
func (c *ownxferChecker) resolveCond(st *ownState, ownerNow bool) {
	if ownerNow {
		st.bits = ownOwned
	} else {
		st.bits = ownXfered
	}
	st.condVar = nil
}

// ---------------------------------------------------------------------
// Reporting.

func (c *ownxferChecker) cand(obj types.Object, kind int, node ast.Node, msg string, args ...any) {
	if !c.record || node == nil {
		return
	}
	c.cands = append(c.cands, ownCand{obj: obj, kind: kind, node: node, msg: msg, args: args})
}

// emit sorts the candidates by position and reports the earliest
// witness per (object, kind) — per (object, site) for escapes.
func (c *ownxferChecker) emit(diags *[]Diagnostic) {
	sort.SliceStable(c.cands, func(i, j int) bool {
		if c.cands[i].node.Pos() != c.cands[j].node.Pos() {
			return c.cands[i].node.Pos() < c.cands[j].node.Pos()
		}
		return c.cands[i].kind < c.cands[j].kind
	})
	type key struct {
		obj  types.Object
		kind int
		site ast.Node
	}
	seen := make(map[key]bool)
	for _, cd := range c.cands {
		k := key{obj: cd.obj, kind: cd.kind}
		if cd.kind == candEscape {
			k.site = cd.node
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		c.p.report(diags, "ownxfer", cd.node, cd.msg, cd.args...)
	}
	c.cands = nil
}

// ---------------------------------------------------------------------
// Rule 1 and table helpers.

// checkSinkLiterals enforces rule 1 on every composite literal of the
// sink struct in body.
func (p *Pass) checkSinkLiterals(body *ast.BlockStmt, spec *ownXferSpec, sink poolSink, diags *[]Diagnostic) {
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || namedTypeName(exprType(p.Pkg.Info, lit), p.Pkg.Types) != sink.Struct {
			return true
		}
		setsPtr, stamped := false, false
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue // positional literals of long-lived events are not used here
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch key.Name {
			case sink.PtrField:
				id, isIdent := unparen(kv.Value).(*ast.Ident)
				setsPtr = !isIdent || id.Name != "nil"
			case sink.StampField:
				// The guard must read the stamp off a pooled record.
				if sel, ok := unparen(kv.Value).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == spec.StampField {
					stamped = true
				}
			}
		}
		if setsPtr && !stamped {
			p.report(diags, "ownxfer", lit,
				"pooled %s pointer stored into %s.%s without the %s reuse-stamp guard; a recycled record would alias a live event",
				spec.Elem, sink.Struct, sink.PtrField, sink.StampField)
		}
		return true
	})
}

// fieldQualName renders a selector store target as "Type.field" when
// the selected object is a struct field of a named type of this
// package; "" otherwise.
func (p *Pass) fieldQualName(sel *ast.SelectorExpr) string {
	s, ok := p.Pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	tn := namedTypeName(exprType(p.Pkg.Info, sel.X), p.Pkg.Types)
	if tn == "" {
		return ""
	}
	return tn + "." + s.Obj().Name()
}

// callsPoolFunc reports whether call invokes a function or method of
// this package with the given name (the table's Acquire/Release).
func (p *Pass) callsPoolFunc(call *ast.CallExpr, name string) bool {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
	return ok && fn.Name() == name && fn.Pkg() == p.Pkg.Types
}

// validateOwnXferSpecs drops (and reports) stale table entries.
func validateOwnXferSpecs(p *Pass, specs []ownXferSpec, diags *[]Diagnostic) []ownXferSpec {
	var out []ownXferSpec
	for _, s := range specs {
		ok := true
		stale := func(format string, args ...any) {
			p.reportAtPkg(diags, "ownxfer", "stale annotation: pooled-record table "+format, args...)
			ok = false
		}
		if st, found := lookupStruct(p.Pkg.Types, s.Elem); !found {
			stale("names record type %s.%s, which does not exist", s.Pkg, s.Elem)
		} else if !structHasField(st, s.StampField) {
			stale("names stamp field %s.%s, which does not exist", s.Elem, s.StampField)
		}
		for _, fn := range []string{s.Acquire, s.Release} {
			if !p.pkgDeclaresFunc(fn) {
				stale("names %s in %s, which does not exist", fn, s.Pkg)
			}
		}
		for _, sink := range s.Sinks {
			sst, found := lookupStruct(p.Pkg.Types, sink.Struct)
			if !found || !structHasField(sst, sink.PtrField) || !structHasField(sst, sink.StampField) {
				stale("sink %s.%s/%s does not resolve in %s", sink.Struct, sink.PtrField, sink.StampField, s.Pkg)
			}
		}
		for _, xf := range s.Transfers {
			if !hasFuncNamed(p, xf.Func) {
				stale("names %s in %s, which does not exist", xf.Func, s.Pkg)
			} else if xf.Cond && !funcHasBoolResult(p, xf.Func, xf.BoolResult) {
				stale("entry %s in %s marks a conditional transfer but has no bool result at index %d", xf.Func, s.Pkg, xf.BoolResult)
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// pkgDeclaresFunc reports whether any top-level function or method of
// the package has the given bare name.
func (p *Pass) pkgDeclaresFunc(name string) bool {
	for _, fi := range p.Funcs() {
		if fi.Decl.Name.Name == name {
			return true
		}
	}
	return false
}

// funcHasBoolResult checks the outcome-result contract of a Cond entry.
func funcHasBoolResult(p *Pass, name string, idx int) bool {
	for _, fi := range p.Funcs() {
		if fi.Name != name {
			continue
		}
		fn, ok := p.Pkg.Info.Defs[fi.Decl.Name].(*types.Func)
		if !ok {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || idx >= sig.Results().Len() {
			return false
		}
		b, ok := sig.Results().At(idx).Type().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Bool
	}
	return false
}
