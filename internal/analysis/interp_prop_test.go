package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"math/rand"
	"sort"
	"testing"
)

// loadAllFixtures loads every golden fixture package through the given
// loader, in the order requested.
func loadAllFixtures(t *testing.T, loader *Loader, order []int) []*Package {
	t.Helper()
	fixtures := goldenFixtures()
	pkgs := make([]*Package, 0, len(fixtures))
	for _, i := range order {
		dir := "testdata/src/" + fixtures[i].name
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// renderJSON marshals diagnostics the way cmd/pd2lint -json does; the
// property tests compare these bytes, so any nondeterminism in message
// text, ordering, or position renders as a byte diff.
func renderJSON(t *testing.T, diags []Diagnostic) []byte {
	t.Helper()
	data, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestDiagnosticsByteIdentical is the determinism property test for the
// whole suite, interprocedural layer included: the JSON rendering of
// every diagnostic over the full fixture set must be byte-identical
// (a) across independent loader runs — nothing may leak map iteration
// order or pointer identity into messages — and (b) under any package
// load order — the call graph sorts its inputs and the effect fixpoint
// is a unique least fixpoint, so load order must not be observable.
func TestDiagnosticsByteIdentical(t *testing.T) {
	n := len(goldenFixtures())
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}

	var want []byte
	for run := 0; run < 3; run++ {
		loader, err := NewLoader(".")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		pkgs := loadAllFixtures(t, loader, identity)
		got := renderJSON(t, RunChecks(pkgs, All(), true))
		if run == 0 {
			want = got
			if !bytes.Contains(want, []byte("hotalloc")) {
				t.Fatalf("fixture run produced no hotalloc diagnostics; property test lost its subject")
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d diagnostics differ from run 0:\n--- run %d ---\n%s\n--- run 0 ---\n%s", run, run, got, want)
		}
	}

	// Shuffled load orders over one loader: the packages are identical
	// objects, only the order RunChecks receives them in changes.
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 5; trial++ {
		order := append([]int(nil), identity...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		pkgs := loadAllFixtures(t, loader, order)
		got := renderJSON(t, RunChecks(pkgs, All(), true))
		if !bytes.Equal(got, want) {
			t.Fatalf("shuffled load order %v changed diagnostics:\n--- shuffled ---\n%s\n--- canonical ---\n%s", order, got, want)
		}
	}
}

// ---------------------------------------------------------------------
// Fixpoint fuzzing.

// synthInterp decodes fuzz bytes into a synthetic call graph: data[0]
// picks the function count, then each function consumes one byte of
// intrinsic state (effect bits, sink flag, an intrinsic lock), and the
// remaining bytes pair up into call edges with dynamic/spawned flags.
// The same bytes always build the same graph, so two decodes with
// different processing orders are the experiment, not the noise.
func synthInterp(data []byte, reversed bool) *interp {
	n := 2
	if len(data) > 0 {
		n += int(data[0]) % 14
	}
	pkg := types.NewPackage("fuzz", "fuzz")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	ip := &interp{built: true, fns: make(map[*types.Func]*interpFn)}
	fns := make([]*interpFn, n)
	for i := range fns {
		obj := types.NewFunc(token.NoPos, pkg, fmt.Sprintf("f%02d", i), sig)
		fn := &interpFn{
			obj:     obj,
			qname:   fmt.Sprintf("fuzz.f%02d", i),
			short:   fmt.Sprintf("fuzz.f%02d", i),
			effSite: make(map[effect]*effSite),
			locks:   make(map[string]bool),
		}
		if i+1 < len(data) {
			b := data[i+1]
			fn.intr = effect(b) & (effAlloc | effTime | effRand | effMapOrder | effBlock)
			fn.sink = b%7 == 0
			if b%5 == 0 {
				fn.locks[fmt.Sprintf("L%d", b%3)] = true
			}
		}
		fns[i] = fn
		ip.fns[obj] = fn
	}
	edges := data
	if len(edges) > n+1 {
		edges = edges[n+1:]
	} else {
		edges = nil
	}
	for i := 0; i+1 < len(edges); i += 2 {
		caller := fns[int(edges[i])%n]
		callee := fns[int(edges[i+1])%n]
		caller.calls = append(caller.calls, callSite{
			callee:  callee.obj,
			dynamic: edges[i]%11 == 0,
			spawned: edges[i+1]%13 == 0,
		})
	}
	ip.order = fns
	if reversed {
		rev := make([]*interpFn, n)
		for i, fn := range fns {
			rev[n-1-i] = fn
		}
		ip.order = rev
	}
	return ip
}

// summarize renders the post-fixpoint summary of every function in a
// canonical form for comparison.
func summarize(ip *interp) map[string]string {
	out := make(map[string]string, len(ip.order))
	for _, fn := range ip.order {
		locks := make([]string, 0, len(fn.locks))
		for id := range fn.locks {
			locks = append(locks, id)
		}
		sort.Strings(locks)
		out[fn.qname] = fmt.Sprintf("eff=%05b locks=%v reaches=%v", fn.eff, locks, fn.reaches)
	}
	return out
}

// FuzzEffectFixpoint drives the effect fixpoint over arbitrary call
// graphs and asserts its two load-bearing properties: it terminates
// with processing-order-independent summaries (the lattice join is a
// monotone union, so the least fixpoint is unique), and every summary
// is closed — a function's transitive effects, lock set, and sink
// reachability contain its own intrinsics plus everything its static
// non-spawned callees expose.
func FuzzEffectFixpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 0, 255, 90, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{13, 5, 10, 35, 70, 140, 7, 21, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 11, 13, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		fwd := synthInterp(data, false)
		rev := synthInterp(data, true)
		fwd.fixpoint()
		rev.fixpoint()

		a, b := summarize(fwd), summarize(rev)
		for name, sa := range a {
			if sb := b[name]; sa != sb {
				t.Fatalf("fixpoint depends on processing order: %s is %q forward, %q reversed", name, sa, sb)
			}
		}

		// Closure: each summary dominates its intrinsics and its static
		// callees' summaries.
		for _, fn := range fwd.order {
			if fn.eff&fn.intr != fn.intr {
				t.Fatalf("%s lost intrinsic effects: eff=%05b intr=%05b", fn.qname, fn.eff, fn.intr)
			}
			for _, cs := range fn.calls {
				if cs.dynamic || cs.spawned {
					continue
				}
				callee := fwd.fnOf(cs.callee)
				if callee == nil {
					continue
				}
				if fn.eff&callee.eff != callee.eff {
					t.Fatalf("%s (eff=%05b) does not include callee %s (eff=%05b)", fn.qname, fn.eff, callee.qname, callee.eff)
				}
				for id := range callee.locks {
					if !fn.locks[id] {
						t.Fatalf("%s missing lock %s from callee %s", fn.qname, id, callee.qname)
					}
				}
				if (callee.sink || callee.reaches) && !fn.reaches {
					t.Fatalf("%s does not reach the sink its callee %s does", fn.qname, callee.qname)
				}
			}
		}
	})
}
