// Command pd2bench is the repository's end-to-end benchmark. It builds
// cmd/pd2d and cmd/pd2cluster, starts the deployment a workload names,
// drives it from two pipelined HTTP/1.1 connections (an open loop at a
// fixed rate, then closed-loop capacity) in rounds that drive a
// bare-HTTP reference server with the same requests, checks that every
// shard's log replays to its digest and survives a snapshot restart,
// and prints every metric with its unit followed by one JSON result
// line.
//
//	pd2bench -workload node-batch32 -seed 1 [-seconds 16] [-trace 1]
//
// The benchmark starts the reference as a second copy of itself,
// "pd2bench -reference <addr>".
//
// With -trace 1 the run is repeated with the same layers hosted in this
// process and wrapped in spans, and the per-layer metrics are reported
// instead; the spans are written to .bench_build/run/<workload>/.
// bench/run.sh builds and runs it from the repository root. It exits 1
// when a correctness check fails and 2 when the run cannot complete.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/bench"
)

// boolValue is a flag that takes an explicit 0/1 (or true/false)
// argument, so "-trace 0" parses as a value rather than ending the flags.
type boolValue bool

func (b *boolValue) String() string { return strconv.FormatBool(bool(*b)) }

func (b *boolValue) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolValue(v)
	return err
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see bench/README.md)")
		seed     = flag.Uint64("seed", 1, "seed of every request stream")
		seconds  = flag.Int("seconds", 16, "open-loop phase length in seconds")
		root     = flag.String("root", ".", "repository root: the module holding cmd/pd2d")
		trace    boolValue
	)
	flag.Var(&trace, "trace", "1: also run in process with spans and report the per-layer metrics")
	reference := flag.String(strings.TrimPrefix(bench.ReferenceFlag, "-"), "",
		"serve the bare-HTTP reference on this address (the benchmark starts it itself)")
	flag.Parse()
	if *reference != "" {
		fmt.Fprintf(os.Stderr, "pd2bench: reference: %v\n", http.ListenAndServe(*reference, bench.ReferenceHandler()))
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, bool(trace), *root); err != nil {
		fmt.Fprintf(os.Stderr, "pd2bench: %v\n", err)
		os.Exit(2)
	}
}

func run(name string, seed uint64, seconds int, trace bool, root string) error {
	w, err := bench.WorkloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	out := filepath.Join(root, ".bench_build")
	bin := filepath.Join(out, "bin")
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/pd2d", "./cmd/pd2cluster")
	build.Dir = root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building the daemons: %w", err)
	}
	work := filepath.Join(out, "run", w.Name)
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	res, err := bench.Run(bench.Config{
		Workload: w,
		Seed:     seed,
		Duration: time.Duration(seconds) * time.Second,
		Trace:    trace,
		WorkDir:  work,
		Bin:      bin,
		Log:      os.Stderr,
	})
	if err != nil {
		return err
	}
	if err := res.Print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}
