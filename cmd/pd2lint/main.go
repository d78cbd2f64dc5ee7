// Command pd2lint runs the repository's invariant checks: a stdlib-only
// static-analysis suite that keeps the PD² simulator on exact rational
// arithmetic, a deterministic, replayable schedule, and a sound pooled
// wire path — twelve checks across AST, dataflow, call-graph, and
// CFG flow-sensitive layers (see docs/LINT.md for the full rationale
// and the suppression syntax).
//
// Usage:
//
//	pd2lint ./...                  # lint the whole module (scoped checks)
//	pd2lint internal/core          # lint one directory (all checks apply)
//	pd2lint -checks errdrop ./...  # run a subset of the checks
//	pd2lint -json ./...            # machine-readable diagnostics
//	pd2lint -sarif ./...           # SARIF 2.1.0 (code-scanning upload format)
//	pd2lint -strict-suppress ./... # also flag stale //lint:allow comments
//	pd2lint -list                  # describe the available checks
//
// With the ./... pattern each check is applied to the packages it is
// scoped to (fracexact to the exact-arithmetic packages, determinism to
// the simulator, and so on). When explicit directories are named, every
// selected check runs on them regardless of scope — that is how seeded
// violations and the testdata fixtures are exercised. The loader is
// anchored at the first explicit directory, so pd2lint can be pointed
// at another module's packages from outside that module.
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on
// usage or load errors. A load error in one directory does not abort
// the run: the remaining directories are still linted, and diagnostics
// win — exit 1 beats exit 2 when both occur, so CI never mistakes
// "broken and dirty" for merely "broken".
package main

//lint:file-allow errdrop CLI boundary: diagnostics print to caller-supplied writers (terminal or test buffers); a failed report write has no further channel to report on

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, lints, writes
// reports to stdout and errors to stderr, and returns the exit status.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pd2lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	checkList := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list the available checks and exit")
	strict := fs.Bool("strict-suppress", false, "report //lint:allow directives that suppress nothing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pd2lint [-json|-sarif] [-checks list] [-strict-suppress] [-list] ./... | dir...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "pd2lint: -json and -sarif are mutually exclusive")
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	checks, err := analysis.ByName(*checkList)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	args := fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return 2
	}

	// Anchor the loader at the first explicit directory so explicit-dir
	// invocations work from outside the target module; ./... always
	// means the module enclosing the working directory.
	anchor := "."
	for _, arg := range args {
		if !strings.HasSuffix(arg, "...") {
			anchor = arg
			break
		}
	}
	loader, err := analysis.NewLoader(anchor)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	dirs, ignoreScope, err := resolvePatterns(loader, args)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Load every directory, collecting — not aborting on — load errors,
	// so diagnostics already found elsewhere are never masked.
	var pkgs []*analysis.Package
	var loadErrs []error
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			loadErrs = append(loadErrs, err)
			continue
		}
		pkgs = append(pkgs, pkg)
	}

	diags := analysis.RunChecksOpts(pkgs, checks, analysis.RunOptions{
		IgnoreScope:   ignoreScope,
		StaleSuppress: *strict,
	})
	for i := range diags {
		diags[i].File = relPath(loader.ModRoot, diags[i].File)
	}
	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case *sarifOut:
		if err := writeSARIF(stdout, checks, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "pd2lint: %d issue(s) in %d package(s)\n", len(diags), len(pkgs))
		}
	}
	for _, err := range loadErrs {
		fmt.Fprintln(stderr, err)
	}
	switch {
	case len(diags) > 0:
		return 1 // diagnostics win: exit 1 beats exit 2
	case len(loadErrs) > 0:
		return 2
	}
	return 0
}

// resolvePatterns expands the command-line package patterns. A trailing
// /... walks the module; explicit directories disable scope filtering
// so every selected check applies to them.
func resolvePatterns(loader *analysis.Loader, args []string) (dirs []string, ignoreScope bool, err error) {
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	explicit := false
	for _, arg := range args {
		if arg == "./..." || arg == "..." || strings.HasSuffix(arg, "/...") {
			base := strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/")
			if base == "" || base == "." {
				all, err := loader.ModuleDirs()
				if err != nil {
					return nil, false, err
				}
				for _, d := range all {
					add(d)
				}
				continue
			}
			return nil, false, fmt.Errorf("pd2lint: only ./... and explicit directories are supported, not %q", arg)
		}
		explicit = true
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, false, err
		}
		st, err := os.Stat(abs)
		if err != nil || !st.IsDir() {
			return nil, false, fmt.Errorf("pd2lint: %s is not a directory", arg)
		}
		add(abs)
	}
	return dirs, explicit, nil
}

// relPath shortens file names to be module-relative when possible.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}
