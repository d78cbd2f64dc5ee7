// The lockorder check: one global lock-acquisition order, no blocking
// operations while a mutex is held, and no path that returns with a
// lock still held.
//
// The serving layer is a single-writer design — each Shard goroutine
// owns its engine — so the only mutexes in the hot path guard tiny
// shared structures (the pending-record free list, the view a shard
// publishes for status reads, the shared importer cache). Precisely because locking is rare, nobody is thinking about
// lock hierarchies when a second mutex appears; a pair of functions
// that take two locks in opposite orders is a deadlock that no unit
// test will ever produce and one loaded weekend will.
//
// lockorder lifts the per-function held-lock facts (interp.go's
// scanLockFlow, computed path-sensitively on the CFG of cfg.go) into a
// global acquisition-order graph:
//
//   - An edge A -> B is recorded when B is acquired while A may be held
//     on some path (same function), or when a call performed while A is
//     held has a callee that transitively acquires B.
//   - A cycle A -> ... -> B -> ... -> A means two executions can each
//     hold one lock and wait for the other; every cyclic edge is
//     reported with the position of the counter-ordered acquisition.
//
// Lock identity is canonical per declaration: field locks are keyed by
// their owning named type (every instance of serve.pendingPool shares
// one ordering discipline), package-level locks by variable path,
// locals by function. Because held sets come from the dataflow rather
// than lexical spans, a conditional unlock or an early return releases
// exactly the paths it runs on: code after `if cond { mu.Unlock() }`
// is held-A only on the paths where cond was false.
//
// Separately, any potentially blocking operation — channel send or
// receive, select without default, range over a channel, a call whose
// summary blocks (mailbox waits) — performed while holding a mutex is
// reported: a blocked lock holder stalls every other acquirer, which in
// serve means the HTTP handlers, not just one shard.
//
// Finally, a lock this function releases on some path but still holds
// when the exit block is reached on another — the classic early-return
// leak — is reported at its acquisition. Bodies that never release a
// lock (explicit lock-helper wrappers) follow the caller's protocol
// and are exempt.
package analysis

import (
	"go/ast"
	"sort"
)

// LockOrder returns the lockorder analyzer.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "global lock-acquisition order must be acyclic; no blocking operations while holding a mutex; no path may return with a lock held",
		Run: func(p *Pass) []Diagnostic {
			ip := p.interpFacts()
			return ip.lockorderBuckets()[p.Pkg.Path]
		},
	}
}

// lockEdge is one observed acquisition ordering with its first witness.
type lockEdge struct {
	from, to string
	pkg      *Package
	node     ast.Node // the inner acquisition (or the call leading to it)
}

// lockorderBuckets computes the check once per run, bucketed by
// package.
func (ip *interp) lockorderBuckets() map[string][]Diagnostic {
	if ip.lockorder != nil {
		return ip.lockorder
	}
	out := make(map[string][]Diagnostic)
	add := func(pkg *Package, n ast.Node, format string, args ...any) {
		pass := &Pass{Pkg: pkg}
		var ds []Diagnostic
		pass.report(&ds, "lockorder", n, format, args...)
		out[pkg.Path] = append(out[pkg.Path], ds...)
	}
	ip.lockorder = out

	// Collect ordered-acquisition edges, first witness per (from, to).
	// Iteration order (functions by qualified name, spans and calls in
	// source order) makes the witness choice deterministic.
	edges := make(map[[2]string]*lockEdge)
	record := func(from, to string, pkg *Package, n ast.Node) {
		if from == to {
			return
		}
		key := [2]string{from, to}
		if edges[key] == nil {
			edges[key] = &lockEdge{from: from, to: to, pkg: pkg, node: n}
		}
	}
	fns := ip.byQname()
	for _, fn := range fns {
		// Nested acquisition in the same function: the held set at each
		// acquisition is the set of outer locks.
		for _, a := range fn.acqs {
			for _, h := range a.held {
				record(h.id, a.id, fn.pkg, a.node)
			}
		}
		// Calls under a held lock into functions that lock.
		for _, cs := range fn.calls {
			if cs.dynamic || cs.spawned {
				continue
			}
			held := fn.heldCall[cs.call]
			if len(held) == 0 {
				continue
			}
			if callee := ip.fnOf(cs.callee); callee != nil {
				ids := make([]string, 0, len(callee.locks))
				for id := range callee.locks {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				for _, h := range held {
					for _, id := range ids {
						record(h.id, id, fn.pkg, cs.call)
					}
				}
			}
		}
	}

	// Reachability over the edge set (the graphs here are tiny — a
	// handful of locks — so repeated DFS is fine).
	next := make(map[string][]string)
	for key := range edges {
		next[key[0]] = append(next[key[0]], key[1])
	}
	for _, succ := range next {
		sort.Strings(succ)
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range next[n] {
				if s == to {
					return true
				}
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		return false
	}

	keys := make([][2]string, 0, len(edges))
	for key := range edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		e := edges[key]
		if !reaches(e.to, e.from) {
			continue
		}
		msg := "acquiring %s while holding %s conflicts with the opposite acquisition order elsewhere"
		if counter := edges[[2]string{e.to, e.from}]; counter != nil {
			cp := counter.pkg.Fset.Position(counter.node.Pos())
			add(e.pkg, e.node, msg+" (%s:%d); the cycle can deadlock",
				shortLockID(e.to), shortLockID(e.from), trimPath(cp.Filename), cp.Line)
		} else {
			add(e.pkg, e.node, msg+"; the cycle can deadlock",
				shortLockID(e.to), shortLockID(e.from))
		}
	}

	// Blocking operations under a held lock. held[0] is the earliest
	// acquisition still held — the lock named in the message.
	seenBlock := make(map[ast.Node]bool)
	for _, fn := range fns {
		for _, b := range fn.blocks {
			held := fn.heldBlock[b.node]
			if len(held) == 0 || seenBlock[b.node] {
				continue
			}
			seenBlock[b.node] = true
			add(fn.pkg, b.node,
				"%s while holding %s; a blocked lock holder stalls every other acquirer", b.kind, shortLockID(held[0].id))
		}
		for _, cs := range fn.calls {
			if cs.dynamic || cs.spawned || cs.inPanic || seenBlock[cs.call] {
				continue
			}
			held := fn.heldCall[cs.call]
			if len(held) == 0 {
				continue
			}
			blockingCallee := ""
			if callee := ip.fnOf(cs.callee); callee != nil {
				if callee.eff&effBlock != 0 {
					blockingCallee = callee.short
				}
			} else if externEffect(cs.callee, ip)&effBlock != 0 {
				blockingCallee = externName(cs.callee)
			}
			if blockingCallee != "" {
				seenBlock[cs.call] = true
				add(fn.pkg, cs.call,
					"call to %s, which may block, while holding %s; a blocked lock holder stalls every other acquirer", blockingCallee, shortLockID(held[0].id))
			}
		}
	}

	// Locks leaked past a return on some path.
	for _, fn := range fns {
		seenLeak := make(map[string]bool)
		for _, lk := range fn.lockLeaks {
			if seenLeak[lk.id] {
				continue
			}
			seenLeak[lk.id] = true
			add(fn.pkg, lk.acq,
				"%s is still held when %s returns on some path; release it on every path or defer the unlock",
				shortLockID(lk.id), fn.short)
		}
	}
	return out
}

// trimPath reduces a file path to its base name for cross-file
// positions embedded in messages (golden files must not depend on the
// checkout directory).
func trimPath(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
