package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// anchoredPattern matches a quoted -run or -fuzz pattern anchored at
// both ends, such as '^(TestA|TestB)$' or '^FuzzC$'; testName matches
// one name in it.
var (
	anchoredPattern = regexp.MustCompile(`-(?:run|fuzz)[ =]'\^([^']*)\$'`)
	testName        = regexp.MustCompile(`^(Test|Fuzz)\w+$`)
)

// TestCIWorkflowNamesExistingTests: every test and fuzz target that a
// step of .github/workflows/ci.yml picks by anchored pattern is
// declared in a package that step runs. A pattern that matches nothing
// selects no test, and go test passes; without this check a renamed or
// deleted test would leave such a step green and empty.
func TestCIWorkflowNamesExistingTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{} // package dir -> Test and Fuzz funcs
	checked := 0
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		for _, m := range anchoredPattern.FindAllStringSubmatch(line, -1) {
			names := strings.TrimSuffix(strings.TrimPrefix(m[1], "("), ")")
			if names == "" {
				continue // '^$' selects nothing on purpose
			}
			if len(pkgs) == 0 {
				t.Errorf("ci.yml runs %q with no package path: %s", m[0], strings.TrimSpace(line))
			}
			for _, name := range strings.Split(names, "|") {
				if !testName.MatchString(name) {
					t.Errorf("ci.yml pattern %q names %q, not a Test or Fuzz function", m[0], name)
					continue
				}
				for _, pkg := range pkgs {
					if declared[pkg] == nil {
						declared[pkg] = testFuncs(t, pkg)
					}
					if !declared[pkg][name] {
						t.Errorf("ci.yml runs %s in %s, which declares no such function", name, pkg)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no anchored -run or -fuzz pattern in ci.yml")
	}
}

// testFuncs returns the Test and Fuzz functions the _test.go files in
// dir declare.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				funcs[fn.Name.Name] = true
			}
		}
	}
	return funcs
}
