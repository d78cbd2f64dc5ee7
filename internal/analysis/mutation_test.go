package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyModuleSource copies the module's go.mod and non-test Go sources
// (minus this analysis package, testdata, and the commands) into a temp
// module, so a mutation can be applied without touching the working
// tree. The copy keeps the module path "repro", which is what the
// annotation tables are keyed by.
func copyModuleSource(t *testing.T) string {
	t.Helper()
	root := moduleLoader(t).ModRoot
	dst := t.TempDir()
	skipRel := map[string]bool{
		filepath.Join("internal", "analysis"): true,
		"cmd":                                 true,
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "out" || name == "vendor" || skipRel[rel]) {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		out := filepath.Join(dst, rel)
		if rerr := os.MkdirAll(filepath.Dir(out), 0o755); rerr != nil {
			return rerr
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
	return dst
}

// srcEdit is one string replacement applied to a module-relative file
// of the temp copy. A mutation is a list of edits so a seeded bug can
// span an import block plus the code that needs it.
type srcEdit struct {
	file string // module-relative, forward slashes
	old  string
	new  string
}

// applyEdits applies a mutation's edits under the temp module root. An
// anchor that no longer matches fails the test: the mutation table must
// track the engine sources it mutates.
func applyEdits(t *testing.T, root string, edits []srcEdit) {
	t.Helper()
	for _, e := range edits {
		target := filepath.Join(root, filepath.FromSlash(e.file))
		src, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		mutated := strings.Replace(string(src), e.old, e.new, 1)
		if mutated == string(src) {
			t.Fatalf("mutation anchor %q not found in %s; keep the mutation test in sync with the engine", e.old, e.file)
		}
		if err := os.WriteFile(target, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeededMutationsAreCaught is the acceptance test for the dataflow
// and call-graph checks: reintroducing each of the silent-corruption
// bugs the checks were built for — deleting the reuse-stamp guard,
// parking a fresh pooled record outside its owner fields, mutating a
// heap ordering key in place, dropping an event kind from
// the dispatch switch, racing a worker pool on captured state, hiding
// an allocation in the digest hot path, feeding the wall clock into the
// replayable command surface, inverting a lock order, touching a pooled
// record after its hand-off, leaking a held lock past an early return —
// must produce a diagnostic from the corresponding check on the real
// engine sources.
func TestSeededMutationsAreCaught(t *testing.T) {
	cases := []struct {
		name  string
		check string
		load  string // module-relative package dir to analyze
		edits []srcEdit
	}{
		{
			name:  "delete-stamp-guard",
			check: "ownxfer",
			load:  "internal/core",
			edits: []srcEdit{{
				file: "internal/core/scheduler.go",
				old:  "sub: sub, stamp: sub.stamp}",
				new:  "sub: sub}",
			}},
		},
		{
			// A release that should wait on its own window parks the
			// fresh record in the pending release's waitD, a field the
			// pool does not own and that carries no stamp: once the
			// chain trims and frees the record, the pending release
			// reads a recycled subtask.
			name:  "park-fresh-subtask-in-non-owner-field",
			check: "ownxfer",
			load:  "internal/core",
			edits: []srcEdit{{
				file: "internal/core/scheduler.go",
				old:  "\tts.nextRel = pendingRelease{at: model.NextRelease(d, b, 0)}\n",
				new:  "\tts.nextRel = pendingRelease{at: model.NextRelease(d, b, 0)}\n\tts.nextRel.waitD = sub\n",
			}},
		},
		{
			name:  "mutate-heap-key-in-place",
			check: "heapkey",
			load:  "internal/core",
			edits: []srcEdit{{
				file: "internal/core/scheduler.go",
				old:  "s.runBuf = append(s.runBuf, ts.offer)",
				new:  "ts.offer.deadline = 0\n\t\ts.runBuf = append(s.runBuf, ts.offer)",
			}},
		},
		{
			name:  "drop-calendar-case",
			check: "eventexhaust",
			load:  "internal/core",
			edits: []srcEdit{{
				file: "internal/core/scheduler.go",
				old:  "\tcase evKindResolve:\n\t\treturn &s.evResolve\n",
				new:  "",
			}},
		},
		{
			name:  "unguarded-shared-write",
			check: "gocapture",
			load:  "internal/expr",
			edits: []srcEdit{{
				file: "internal/expr/expr.go",
				old:  "results[i], errs[i] = RunWhisperCfg(pp, rc)",
				new:  "results[i], errs[i] = RunWhisperCfg(pp, rc)\n\t\t\t\tresults = results[:1]",
			}},
		},
		// The v3 interprocedural checks. Each seeds the exact bug class
		// the check exists for, at the place it would realistically creep
		// in.
		{
			// A "quick fix" swaps the hand-rolled integer render for
			// fmt.Sprintf deep inside the digest path: every slot now
			// allocates under pd2d status reporting. hotalloc sees the
			// extern call on the //lint:noalloc appendState root.
			name:  "hidden-alloc-in-digest",
			check: "hotalloc",
			load:  "internal/core",
			edits: []srcEdit{
				{
					file: "internal/core/digest.go",
					old:  "import \"io\"",
					new:  "import (\n\t\"fmt\"\n\t\"io\"\n)",
				},
				{
					file: "internal/core/digest.go",
					old:  "dst = appendInt(dst, int64(s.now))",
					new:  "dst = append(dst, fmt.Sprintf(\"%d\", s.now)...)",
				},
			},
		},
		{
			// The flush boundary stamps commands with the wall clock
			// instead of the engine clock: the log still applies, but a
			// replay at a different wall time diverges. detflow sees
			// time.Now taint reaching the registered core.Scheduler.Apply
			// sink.
			name:  "wallclock-feeds-apply",
			check: "detflow",
			load:  "internal/serve",
			edits: []srcEdit{
				{
					file: "internal/serve/shard.go",
					old:  "\t\"strings\"\n\n\t\"repro/internal/core\"",
					new:  "\t\"strings\"\n\t\"time\"\n\n\t\"repro/internal/core\"",
				},
				{
					file: "internal/serve/shard.go",
					old:  "now := sh.eng.Now()\n\tfor _, c := range sh.batch {",
					new:  "now := model.Time(time.Now().UnixNano())\n\tfor _, c := range sh.batch {",
				},
			},
		},
		{
			// A stats counter bolted onto the pending pool acquires its
			// new mutex in opposite orders on the alloc and free sides —
			// the classic incremental-change deadlock. lockorder sees the
			// mu -> statsMu -> mu cycle.
			name:  "inverted-lock-order",
			check: "lockorder",
			load:  "internal/serve",
			edits: []srcEdit{
				{
					file: "internal/serve/mailbox.go",
					old:  "type pendingPool struct {\n\tmu   sync.Mutex\n\tfree []*pending\n}",
					new:  "type pendingPool struct {\n\tmu      sync.Mutex\n\tstatsMu sync.Mutex\n\tgets    int64\n\tfree    []*pending\n}",
				},
				{
					file: "internal/serve/mailbox.go",
					old:  "\tpp.mu.Lock()\n\tif n := len(pp.free); n > 0 {",
					new:  "\tpp.mu.Lock()\n\tpp.statsMu.Lock()\n\tpp.gets++\n\tpp.statsMu.Unlock()\n\tif n := len(pp.free); n > 0 {",
				},
				{
					file: "internal/serve/mailbox.go",
					old:  "\tpp.mu.Lock()\n\tpp.free = append(pp.free, p)\n\tpp.mu.Unlock()",
					new:  "\tpp.statsMu.Lock()\n\tpp.mu.Lock()\n\tpp.free = append(pp.free, p)\n\tpp.mu.Unlock()\n\tpp.statsMu.Unlock()",
				},
			},
		},
		// The v4 flow-sensitive checks. Each seeds the bug class on the
		// pooled wire path that motivated the CFG layer.
		{
			// A "cleanup" resets the record's request fields after the
			// reply send — but the send handed the record to the blocked
			// handler, which may already be freeing it on another CPU.
			// ownxfer sees the write on the path after the hand-off.
			name:  "use-after-send-of-pooled-record",
			check: "ownxfer",
			load:  "internal/serve",
			edits: []srcEdit{{
				file: "internal/serve/shard.go",
				old:  "\t\tsh.advance(p.slots)\n\t\tp.reply <- reply{now: sh.eng.Now()}\n",
				new:  "\t\tsh.advance(p.slots)\n\t\tp.reply <- reply{now: sh.eng.Now()}\n\t\tp.slots = 0\n",
			}},
		},
		{
			// The pool-hit fast path returns without releasing the pool
			// mutex: every later newPending call deadlocks. The lexical
			// spans closed this hole at the end of the body; the CFG leak
			// rule sees the held lock reach the return.
			name:  "early-return-leaks-pool-lock",
			check: "lockorder",
			load:  "internal/serve",
			edits: []srcEdit{{
				file: "internal/serve/mailbox.go",
				old:  "\t\tpp.free = pp.free[:n-1]\n\t\tpp.mu.Unlock()\n\t\treturn p\n",
				new:  "\t\tpp.free = pp.free[:n-1]\n\t\treturn p\n",
			}},
		},
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := copyModuleSource(t)
			applyEdits(t, dst, tc.edits)

			loader, err := NewLoader(dst)
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			pkgDir := filepath.Join(dst, filepath.FromSlash(tc.load))
			pkg, err := loader.LoadDir(pkgDir)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", pkgDir, err)
			}
			diags := RunChecks([]*Package{pkg}, []*Analyzer{byName[tc.check]}, false)
			if len(diags) == 0 {
				t.Fatalf("mutation %s not caught by %s", tc.name, tc.check)
			}
			for _, d := range diags {
				if d.Check != tc.check {
					t.Errorf("unexpected foreign diagnostic %s", d)
				}
			}
		})
	}
}
