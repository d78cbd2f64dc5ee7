package repro

import (
	"fmt"
	"testing"
)

// The figure benchmarks regenerate each of the paper's evaluation figures
// (Sec. 5, Fig. 11(a)-(d)) and the companion paper's hybrid ablation, with a
// reduced run count per configuration (the full 61-run data is produced by
// cmd/reprofigs). Each reports the headline numbers of the figure as custom
// benchmark metrics so regressions in the reproduced *shape* are visible in
// benchmark output.

var benchOptions = Options{Runs: 3, BaseSeed: 4242}

// reportEndpoints attaches the first and last mean of each series as
// benchmark metrics.
func reportEndpoints(b *testing.B, fig Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Mean) == 0 {
			continue
		}
		b.ReportMetric(s.Mean[0], s.Label+"@lo")
		b.ReportMetric(s.Mean[len(s.Mean)-1], s.Label+"@hi")
	}
}

// BenchmarkFig11a regenerates Fig. 11(a): maximum drift at t=1000 as a
// function of object speed, for PD²-OI and PD²-LJ with and without the
// occluding pole.
func BenchmarkFig11a(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, _, err = Fig11AB(benchOptions)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEndpoints(b, fig)
}

// BenchmarkFig11b regenerates Fig. 11(b): percent of the ideal (I_PS)
// allocation as a function of object speed.
func BenchmarkFig11b(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		var err error
		_, fig, err = Fig11AB(benchOptions)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEndpoints(b, fig)
}

// BenchmarkFig11c regenerates Fig. 11(c): maximum drift at t=1000 as a
// function of the radius of rotation.
func BenchmarkFig11c(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, _, err = Fig11CD(benchOptions)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEndpoints(b, fig)
}

// BenchmarkFig11d regenerates Fig. 11(d): percent of the ideal allocation
// as a function of the radius of rotation.
func BenchmarkFig11d(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		var err error
		_, fig, err = Fig11CD(benchOptions)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEndpoints(b, fig)
}

// BenchmarkHybridAblation regenerates the companion paper's efficiency-
// versus-accuracy sweep over the hybrid OI/LJ threshold.
func BenchmarkHybridAblation(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = HybridAblation(benchOptions)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEndpoints(b, fig)
}

// BenchmarkWhisperRun measures one full 1000-quantum Whisper simulation
// under each policy — the unit of work every figure point repeats.
func BenchmarkWhisperRun(b *testing.B) {
	for _, kind := range []PolicyKind{PolicyOI, PolicyLJ} {
		b.Run(kind.String(), func(b *testing.B) {
			p := DefaultWhisperParams()
			p.Speed = 2.9
			for i := 0; i < b.N; i++ {
				p.Seed = uint64(i + 1)
				res, err := RunWhisper(p, kind, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Misses != 0 {
					b.Fatalf("misses: %d", res.Misses)
				}
			}
		})
	}
}

// BenchmarkSchedulerSlot measures the per-slot cost of the PD² engine on a
// static system, across system sizes. The paper reports ~5µs per-slot
// scheduling decisions on its 2.7GHz testbed; the event-driven calendar
// engine keeps the per-slot cost roughly flat as the task count grows (see
// BENCH_core.json for the tracked trajectory).
func BenchmarkSchedulerSlot(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512, 2048, 8192} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			var tasks []Spec
			for i := 0; i < n; i++ {
				tasks = append(tasks, Spec{Name: fmt.Sprintf("T%d", i), Weight: NewRat(1, int64(n/4+2))})
			}
			sys := System{M: 4, Tasks: tasks}
			s, err := NewScheduler(Config{M: 4, Policy: PolicyOI, Police: true}, sys)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			if len(s.Misses()) != 0 {
				b.Fatalf("misses: %v", s.Misses())
			}
		})
	}
}

// BenchmarkReweightStorm measures a worst-case adaptive load: every slot,
// a batch of tasks re-initiates weight changes while the engine is
// scheduling, so the calendar's enactment/release machinery is exercised as
// hard as the paper's Ω(max(N, M log N)) reweighting bound suggests.
func BenchmarkReweightStorm(b *testing.B) {
	const n = 512
	const batch = 32
	names := make([]string, n)
	var tasks []Spec
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i)
		tasks = append(tasks, Spec{Name: names[i], Weight: NewRat(1, 256)})
	}
	s, err := NewScheduler(Config{M: 4, Policy: PolicyOI, Police: true},
		System{M: 4, Tasks: tasks})
	if err != nil {
		b.Fatal(err)
	}
	weights := []Rat{NewRat(1, 256), NewRat(1, 128), NewRat(1, 200)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * batch) % n
		for j := 0; j < batch; j++ {
			if err := s.Initiate(names[(base+j)%n], weights[(i+j)%len(weights)]); err != nil {
				b.Fatal(err)
			}
		}
		s.Step()
	}
	if len(s.Misses()) != 0 {
		b.Fatalf("misses: %v", s.Misses())
	}
}

// BenchmarkReweightStormShard measures one slot of a pd2bench
// node-batch32 shard's command stream: M=4, 64 tasks, and 256 reweights
// to 1/64 or 2/64 on random tasks before each Step, so most of them skip
// a change the last one left unenacted. One op is the 256 Initiates and
// the Step.
func BenchmarkReweightStormShard(b *testing.B) {
	for _, kind := range []PolicyKind{PolicyOI, PolicyLJ} {
		b.Run(kind.String(), func(b *testing.B) {
			names := make([]string, 64)
			var tasks []Spec
			for i := range names {
				names[i] = fmt.Sprintf("t%d", i)
				tasks = append(tasks, Spec{Name: names[i], Weight: NewRat(1, 64)})
			}
			s, err := NewScheduler(Config{M: 4, Policy: kind, Police: true}, System{M: 4, Tasks: tasks})
			if err != nil {
				b.Fatal(err)
			}
			weights := []Rat{NewRat(1, 64), NewRat(2, 64)}
			x := uint64(25) // xorshift state: the stream is the same every run
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 256; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					if err := s.Initiate(names[x%64], weights[(x>>6)%2]); err != nil {
						b.Fatal(err)
					}
				}
				s.Step()
			}
			if len(s.Misses()) != 0 {
				b.Fatalf("misses: %v", s.Misses())
			}
		})
	}
}

// BenchmarkReweight measures the cost of one initiation + enactment cycle
// under each policy. The paper notes reweighting is O(log N) per task; here
// the engine's bookkeeping dominates.
func BenchmarkReweight(b *testing.B) {
	for _, kind := range []PolicyKind{PolicyOI, PolicyLJ} {
		b.Run(kind.String(), func(b *testing.B) {
			tasks := Replicate(16, Spec{Name: "T", Weight: NewRat(1, 10)})
			sys := System{M: 4, Tasks: tasks}
			s, err := NewScheduler(Config{M: 4, Policy: kind, Police: true}, sys)
			if err != nil {
				b.Fatal(err)
			}
			weights := []Rat{NewRat(1, 10), NewRat(1, 5), NewRat(3, 10)}
			names := make([]string, len(tasks))
			for i, t := range tasks {
				names[i] = t.Name
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Initiate(names[i%16], weights[i%len(weights)]); err != nil {
					b.Fatal(err)
				}
				s.Step()
			}
		})
	}
}

// BenchmarkOverheadTradeoff regenerates the companion paper's efficiency-
// versus-accuracy frontier (hybrid threshold sweep with per-event costs).
func BenchmarkOverheadTradeoff(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = OverheadTradeoff(benchOptions)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEndpoints(b, fig)
}

// BenchmarkGammaAblation regenerates the cost-model dynamic-range ablation.
func BenchmarkGammaAblation(b *testing.B) {
	var fig Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = GammaAblation(benchOptions)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEndpoints(b, fig)
}

// BenchmarkSchemeComparison regenerates the Sec. 6 PD²-vs-EDF trade-off
// matrix.
func BenchmarkSchemeComparison(b *testing.B) {
	p := DefaultWhisperParams()
	p.Speed = 2.9
	var table SchemeTable
	for i := 0; i < b.N; i++ {
		var err error
		table, err = SchemeComparison(p, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range table.Rows {
		b.ReportMetric(r.PctIdeal.Mean, r.Scheme.String()+"_pct")
	}
}

// BenchmarkERfairAblation compares idle processor-slots under plain Pfair
// releases and the ERfair early-release extension on an underloaded system.
func BenchmarkERfairAblation(b *testing.B) {
	for _, early := range []bool{false, true} {
		name := "Pfair"
		if early {
			name = "ERfair"
		}
		b.Run(name, func(b *testing.B) {
			var holes int64
			for i := 0; i < b.N; i++ {
				sys := System{M: 2, Tasks: []Spec{
					{Name: "A", Weight: NewRat(1, 3)},
					{Name: "B", Weight: NewRat(1, 4)},
					{Name: "C", Weight: NewRat(1, 5)},
				}}
				s, err := NewScheduler(Config{M: 2, Policy: PolicyOI, Police: true, EarlyRelease: early}, sys)
				if err != nil {
					b.Fatal(err)
				}
				s.RunTo(1000)
				if len(s.Misses()) != 0 {
					b.Fatal("misses")
				}
				holes = s.Holes()
			}
			b.ReportMetric(float64(holes), "holes/1000slots")
		})
	}
}

// BenchmarkHeavySchedulerSlot measures the per-slot cost with the full PD²
// priority active (heavy tasks, group deadlines) at full utilization.
func BenchmarkHeavySchedulerSlot(b *testing.B) {
	tasks := Replicate(7, Spec{Name: "H", Weight: NewRat(5, 7)})
	s, err := NewScheduler(Config{M: 5, Policy: PolicyOI, Police: true, AllowHeavy: true},
		System{M: 5, Tasks: tasks})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	if len(s.Misses()) != 0 {
		b.Fatal("misses")
	}
}
