// Command reprofigs regenerates every evaluation artifact of the paper in
// one invocation and writes the data files that EXPERIMENTS.md references:
//
//   - Fig. 11(a)-(d): the Whisper sweeps (PD²-OI vs PD²-LJ, pole vs no
//     pole) with 98% confidence intervals over randomized runs;
//   - the hybrid OI/LJ ablation of the companion paper;
//   - the worked-example checks (Figs. 4, 6, 8, 9 and Theorems 3-5 values),
//     re-verified at run time.
//
// Usage:
//
//	reprofigs [-runs 61] [-out out]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	runs := flag.Int("runs", 61, "randomized runs per configuration (paper: 61)")
	seed := flag.Uint64("seed", 1000, "base seed")
	outDir := flag.String("out", "out", "output directory for TSV data")
	alsoJSON := flag.Bool("json", false, "also write .json files beside the .tsv data")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	o := repro.Options{Runs: *runs, BaseSeed: *seed}

	fmt.Printf("Regenerating evaluation figures (%d runs per point, 98%% CIs)...\n\n", *runs)
	start := time.Now()

	a, b, err := repro.Fig11AB(o)
	if err != nil {
		fatal(err)
	}
	c, d, err := repro.Fig11CD(o)
	if err != nil {
		fatal(err)
	}
	h, err := repro.HybridAblation(o)
	if err != nil {
		fatal(err)
	}
	g, err := repro.GammaAblation(o)
	if err != nil {
		fatal(err)
	}
	ov, err := repro.OverheadTradeoff(o)
	if err != nil {
		fatal(err)
	}
	bu, err := repro.BurstyComparison(o)
	if err != nil {
		fatal(err)
	}
	for _, f := range []repro.Figure{a, b, c, d, h, g, ov, bu} {
		path := *outDir + "/" + f.ID + ".tsv"
		if err := os.WriteFile(path, []byte(f.TSV()), 0o644); err != nil {
			fatal(err)
		}
		if *alsoJSON {
			data, err := f.JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*outDir+"/"+f.ID+".json", data, 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("%s -> %s\n", f.ID, path)
	}
	// Cross-scheme comparison (Sec. 6): PD²-OI vs PD²-LJ vs global EDF vs
	// partitioned EDF on the fast occluded workload.
	sp := repro.DefaultWhisperParams()
	sp.Speed = 2.9
	schemes, err := repro.SchemeComparison(sp, o)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*outDir+"/schemes.tsv", []byte(schemes.TSV()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("schemes -> %s/schemes.tsv\n", *outDir)
	fmt.Printf("\nsweeps took %s\n\n", time.Since(start).Round(time.Millisecond))
	fmt.Println("Scheme comparison (Sec. 6 trade-offs):")
	fmt.Print(schemes.TSV())
	fmt.Println()

	// Headline comparison (paper Sec. 5): LJ completes at most ~85% of the
	// I_PS allocations while OI is always within ~95%.
	fmt.Println("Headline (Fig. 11(b), fastest speed):")
	printEndpoint(b, "PD2-OI/pole")
	printEndpoint(b, "PD2-LJ/pole")

	fmt.Println("\nDrift at t=1000 (Fig. 11(a), fastest speed):")
	printEndpoint(a, "PD2-OI/pole")
	printEndpoint(a, "PD2-LJ/pole")

	fmt.Println("\nWorked-example checks:")
	verifyWorkedExamples()
	fmt.Println("\nAll artifacts regenerated. Compare against EXPERIMENTS.md.")
}

func printEndpoint(f repro.Figure, label string) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		i := len(s.Mean) - 1
		fmt.Printf("  %-16s x=%.2f: %.4f ±%.4f\n", label, s.X[i], s.Mean[i], s.CI[i])
	}
}

func verifyWorkedExamples() {
	check := func(name, got, want string) {
		status := "ok "
		if got != want {
			status = "FAIL"
		}
		fmt.Printf("  [%s] %-34s got %-8s want %s\n", status, name, got, want)
	}

	// Fig. 6(b): rule O drift = 1/2.
	check("Fig6(b) rule-O drift", fig6Drift("b"), "1/2")
	// Fig. 6(c): rule I increase drift = 1/2.
	check("Fig6(c) rule-I increase drift", fig6Drift("c"), "1/2")
	// Fig. 6(d): rule I decrease drift = -3/20.
	check("Fig6(d) rule-I decrease drift", fig6Drift("d"), "-3/20")
	// Fig. 8 / Theorem 3: PD²-LJ drift = 24/10 = 12/5.
	check("Fig8 (Thm 3) PD2-LJ drift", fig8Drift(), "12/5")
	// Fig. 9 / Theorem 4: EPDF miss at t=9.
	check("Fig9 (Thm 4) EPDF miss time", fig9Miss(), "9")
}

func fig6Drift(inset string) string {
	initial, target, at, tie := repro.NewRat(3, 20), repro.NewRat(1, 2), repro.Time(10), "C"
	switch inset {
	case "c":
		tie = "T"
	case "d":
		initial, target, at, tie = repro.NewRat(2, 5), repro.NewRat(3, 20), 1, "T"
	}
	tasks := repro.Replicate(19, repro.Spec{Name: "C", Weight: repro.NewRat(3, 20), Group: "C"})
	tasks = append(tasks, repro.Spec{Name: "T", Weight: initial, Group: "T"})
	s, err := repro.NewScheduler(repro.Config{
		M: 4, Policy: repro.PolicyOI, Police: true, TieBreak: repro.FavorGroup(tie),
	}, repro.System{M: 4, Tasks: tasks})
	if err != nil {
		fatal(err)
	}
	s.RunTo(at)
	if err := s.Initiate("T", target); err != nil {
		fatal(err)
	}
	s.RunTo(20)
	m, _ := s.Metrics("T")
	return m.Drift.String()
}

func fig8Drift() string {
	tasks := repro.Replicate(35, repro.Spec{Name: "A", Weight: repro.NewRat(1, 10)})
	tasks = append(tasks, repro.Spec{Name: "T", Weight: repro.NewRat(1, 10)})
	s, err := repro.NewScheduler(repro.Config{M: 4, Policy: repro.PolicyLJ, Police: true},
		repro.System{M: 4, Tasks: tasks})
	if err != nil {
		fatal(err)
	}
	s.RunTo(4)
	if err := s.Initiate("T", repro.NewRat(1, 2)); err != nil {
		fatal(err)
	}
	s.RunTo(12)
	m, _ := s.Metrics("T")
	return m.Drift.String()
}

func fig9Miss() string {
	e := repro.NewEPDFPS(2)
	e.RunTo(12, func(now repro.Time, e *repro.EPDFPS) {
		switch now {
		case 0:
			for i := 0; i < 10; i++ {
				_ = e.Join(fmt.Sprintf("A#%d", i), repro.NewRat(1, 7))
			}
			_ = e.Join("B#0", repro.NewRat(1, 6))
			_ = e.Join("B#1", repro.NewRat(1, 6))
			for i := 0; i < 5; i++ {
				_ = e.Join(fmt.Sprintf("D#%d", i), repro.NewRat(1, 21))
			}
		case 6:
			_ = e.Leave("B#0")
			_ = e.Leave("B#1")
			_ = e.Join("C#0", repro.NewRat(1, 14))
			_ = e.Join("C#1", repro.NewRat(1, 14))
		case 7:
			for i := 0; i < 10; i++ {
				_ = e.Leave(fmt.Sprintf("A#%d", i))
			}
			for i := 0; i < 5; i++ {
				_ = e.SetWeight(fmt.Sprintf("D#%d", i), repro.NewRat(1, 3))
			}
		}
	})
	if m := e.Misses(); len(m) > 0 {
		return fmt.Sprintf("%d", m[0].Deadline)
	}
	return "none"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
