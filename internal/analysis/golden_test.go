package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// moduleLoader is the one Loader every test in this package shares:
// each package (fixtures included — they live inside this module) is
// parsed and type-checked exactly once per `go test` run, and the
// standard library import cache is shared process-wide (load.go). This
// is the same load-once discipline cmd/pd2lint uses.
var (
	moduleLoaderOnce sync.Once
	moduleLoaderVal  *Loader
	moduleLoaderErr  error
)

func moduleLoader(t testing.TB) *Loader {
	t.Helper()
	moduleLoaderOnce.Do(func() {
		moduleLoaderVal, moduleLoaderErr = NewLoader(".")
	})
	if moduleLoaderErr != nil {
		t.Fatalf("NewLoader: %v", moduleLoaderErr)
	}
	return moduleLoaderVal
}

func loadFixture(t testing.TB, check string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", check)
	pkg, err := moduleLoader(t).LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// goldenFixture pairs a fixture package, testdata/src/<name>/, with
// the analyzer whose diagnostics on it testdata/<name>.golden records.
type goldenFixture struct {
	name string
	a    *Analyzer
}

// goldenFixtures lists every analyzer's own fixture, plus poolescape:
// the pooled-record fixture (reuse stamps, a sink, owner fields), which
// ownxfer checks next to its mailbox fixture.
func goldenFixtures() []goldenFixture {
	var fs []goldenFixture
	for _, a := range All() {
		fs = append(fs, goldenFixture{a.Name, a})
	}
	return append(fs, goldenFixture{"poolescape", OwnXfer()})
}

// TestGolden runs each analyzer over its fixture packages and compares
// the rendered diagnostics against the fixture's golden file.
// Suppressed lines (//lint:allow) must already be filtered, so every
// fixture doubles as a suppression test.
func TestGolden(t *testing.T) {
	for _, f := range goldenFixtures() {
		a := f.a
		t.Run(f.name, func(t *testing.T) {
			pkg := loadFixture(t, f.name)
			diags := RunChecks([]*Package{pkg}, []*Analyzer{a}, true)
			var b strings.Builder
			for _, d := range diags {
				fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", filepath.Base(d.File), d.Line, d.Col, d.Check, d.Message)
			}
			got := b.String()

			goldenPath := filepath.Join("testdata", f.name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", a.Name, got, want)
			}
		})
	}
}

// TestGoldenFixturesSeedViolations asserts that every fixture seeds at
// least one violation of its own category — the acceptance criterion
// that pd2lint exits non-zero on each check is anchored here.
func TestGoldenFixturesSeedViolations(t *testing.T) {
	for _, f := range goldenFixtures() {
		a := f.a
		pkg := loadFixture(t, f.name)
		diags := RunChecks([]*Package{pkg}, []*Analyzer{a}, true)
		if len(diags) == 0 {
			t.Errorf("fixture %s produced no %s diagnostics", pkg.Dir, a.Name)
		}
		for _, d := range diags {
			if d.Check != a.Name {
				t.Errorf("fixture %s produced foreign diagnostic %s", pkg.Dir, d)
			}
		}
	}
}

// loadModulePkgs loads every package of the module through the shared
// loader.
func loadModulePkgs(t testing.TB) []*Package {
	t.Helper()
	loader := moduleLoader(t)
	dirs, err := loader.ModuleDirs()
	if err != nil {
		t.Fatalf("ModuleDirs: %v", err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// TestModuleClean asserts the repository itself passes its own suite —
// including stale-suppression strictness — on every go test run, not
// only in make check.
func TestModuleClean(t *testing.T) {
	diags := RunChecksOpts(loadModulePkgs(t), All(), RunOptions{StaleSuppress: true})
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// BenchmarkLintModule guards the load-once architecture: one iteration
// loads the module (warm stdlib cache, cold module packages) and runs
// the full suite. A regression that re-loads or re-type-checks per
// check shows up here as a step change.
func BenchmarkLintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader(".")
		if err != nil {
			b.Fatalf("NewLoader: %v", err)
		}
		dirs, err := loader.ModuleDirs()
		if err != nil {
			b.Fatalf("ModuleDirs: %v", err)
		}
		var pkgs []*Package
		for _, dir := range dirs {
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				b.Fatalf("LoadDir(%s): %v", dir, err)
			}
			pkgs = append(pkgs, pkg)
		}
		if diags := RunChecksOpts(pkgs, All(), RunOptions{}); len(diags) != 0 {
			b.Fatalf("module not clean: %d diagnostics", len(diags))
		}
	}
}
