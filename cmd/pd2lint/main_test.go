package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeTree lays out a temp module from a map of relative path -> body.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, body := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const tmpGoMod = "module tmpmod\n\ngo 1.22\n"

// dirtyGo seeds one floatcmp violation (float equality).
const dirtyGo = `package dirty

func Eq(a, b float64) bool { return a == b }
`

// cleanGo has no findings under any check.
const cleanGo = `package clean

func Add(a, b int) int { return a + b }
`

// brokenGo does not type-check.
const brokenGo = `package broken

var x int = "not an int"
`

// staleGo carries a //lint:allow that suppresses nothing.
const staleGo = `package stale

//lint:allow floatcmp nothing to suppress here
func Add(a, b int) int { return a + b }
`

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanIsZero(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":        tmpGoMod,
		"clean/a.go":    cleanGo,
		"clean/unused":  "",
		"clean/.hidden": "",
	})
	code, stdout, stderr := runCLI(t, filepath.Join(root, "clean"))
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

func TestExitDiagnosticsIsOne(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":     tmpGoMod,
		"dirty/a.go": dirtyGo,
	})
	code, stdout, _ := runCLI(t, filepath.Join(root, "dirty"))
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, stdout)
	}
	if !strings.Contains(stdout, "floatcmp") {
		t.Fatalf("stdout missing floatcmp diagnostic:\n%s", stdout)
	}
}

func TestExitLoadErrorIsTwo(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      tmpGoMod,
		"broken/a.go": brokenGo,
	})
	code, _, stderr := runCLI(t, filepath.Join(root, "broken"))
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "type-checking") {
		t.Fatalf("stderr missing load error:\n%s", stderr)
	}
}

// TestDiagnosticsBeatLoadErrors is the exit-code contract: a load error
// in one directory must not mask diagnostics collected from another —
// exit 1 wins over exit 2 when both occur.
func TestDiagnosticsBeatLoadErrors(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      tmpGoMod,
		"dirty/a.go":  dirtyGo,
		"broken/a.go": brokenGo,
	})
	code, stdout, stderr := runCLI(t,
		filepath.Join(root, "dirty"), filepath.Join(root, "broken"))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (diagnostics win)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "floatcmp") {
		t.Fatalf("diagnostics lost:\n%s", stdout)
	}
	if !strings.Contains(stderr, "type-checking") {
		t.Fatalf("load error not reported on stderr:\n%s", stderr)
	}
}

func TestStrictSuppressFlagsStaleDirective(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":     tmpGoMod,
		"stale/a.go": staleGo,
	})
	dir := filepath.Join(root, "stale")
	// Without the flag the stale directive is tolerated.
	code, stdout, _ := runCLI(t, dir)
	if code != 0 {
		t.Fatalf("exit %d without -strict-suppress, want 0\n%s", code, stdout)
	}
	// With it, the dead directive is itself a diagnostic.
	code, stdout, _ = runCLI(t, "-strict-suppress", dir)
	if code != 1 {
		t.Fatalf("exit %d with -strict-suppress, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "[suppress]") || !strings.Contains(stdout, "stale suppression") {
		t.Fatalf("missing stale-suppression diagnostic:\n%s", stdout)
	}
}

func TestJSONOutput(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":     tmpGoMod,
		"dirty/a.go": dirtyGo,
	})
	code, stdout, _ := runCLI(t, "-json", filepath.Join(root, "dirty"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout, `"check": "floatcmp"`) {
		t.Fatalf("JSON output missing check field:\n%s", stdout)
	}
}

// TestSARIFOutput decodes the -sarif log and checks the slice of the
// schema consumers depend on: version, driver name, a rules entry per
// selected check, and one result per diagnostic with a forward-slash
// URI and a 1-based region.
func TestSARIFOutput(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":     tmpGoMod,
		"dirty/a.go": dirtyGo,
	})
	code, stdout, _ := runCLI(t, "-sarif", filepath.Join(root, "dirty"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("decoding SARIF: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs; want 2.1.0 with 1 run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "pd2lint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	if got, want := len(run.Tool.Driver.Rules), len(analysis.All()); got != want {
		t.Errorf("%d rules, want %d (one per check)", got, want)
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for a dirty package")
	}
	r := run.Results[0]
	if r.RuleID != "floatcmp" || r.Level != "error" {
		t.Errorf("result rule=%q level=%q, want floatcmp/error", r.RuleID, r.Level)
	}
	if len(r.Locations) != 1 {
		t.Fatalf("%d locations, want 1", len(r.Locations))
	}
	loc := r.Locations[0].PhysicalLocation
	if strings.Contains(loc.ArtifactLocation.URI, "\\") {
		t.Errorf("URI %q not forward-slash", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine < 1 || loc.Region.StartColumn < 1 {
		t.Errorf("region %+v not 1-based", loc.Region)
	}
}

// TestSARIFCleanRun: a clean run still emits a complete, decodable log
// with an empty results array — the code-scanning upload contract.
func TestSARIFCleanRun(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":     tmpGoMod,
		"clean/a.go": cleanGo,
	})
	code, stdout, _ := runCLI(t, "-sarif", filepath.Join(root, "clean"))
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(stdout, `"results": []`) {
		t.Fatalf("clean SARIF log missing empty results array:\n%s", stdout)
	}
}

func TestJSONAndSARIFExclusive(t *testing.T) {
	if code, _, stderr := runCLI(t, "-json", "-sarif", "."); code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("exit %d, stderr %q; want 2 with mutually-exclusive error", code, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-checks", "nonexistent", "."); code != 2 {
		t.Fatalf("unknown check: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "internal/..."); code != 2 {
		t.Fatalf("unsupported pattern: exit %d, want 2", code)
	}
}

// TestListChecks requires -list to print exactly the registry, one
// check per line, in registry order.
func TestListChecks(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	var got, want []string
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			got = append(got, f[0])
		}
	}
	for _, a := range analysis.All() {
		want = append(want, a.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("-list names %v, want analysis.All() %v", got, want)
	}
}
