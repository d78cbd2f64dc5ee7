package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Toy returns a copy scaled down for the in-process tests: the same
// shape and mix at a few hundred requests, and a rate that gives every
// round's open-loop window a few requests.
func (w *Workload) Toy() *Workload {
	t := *w
	t.Rate = max(1200, w.Rate/10)
	t.CapRequests = 200
	if t.Tasks > 32 {
		t.Tasks = 32
	}
	return &t
}

// benchmarkJSON is the part of ../BENCHMARK.json the harness must match.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// sameMetrics fails unless got carries exactly the named metrics, each
// with the declared unit.
func sameMetrics(t *testing.T, what string, got []Metric, want map[string]string) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range got {
		unit, ok := want[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: emits %s, which BENCHMARK.json does not name", what, m.Name)
		case m.Unit == "":
			t.Errorf("%s: emits %s without a unit", what, m.Name)
		case m.Unit != unit:
			t.Errorf("%s: emits %s in %s, BENCHMARK.json says %s", what, m.Name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", what, m.Name, m.Value)
		}
		seen[m.Name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: BENCHMARK.json names %s, which is not emitted", what, name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness in step:
// the same workloads with the same reasons, the same metrics with the
// same units, and set-up time gated with the largest bound.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}
	e2e, layers := make(map[string]string), make(map[string]string)
	largest := 0.0
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		largest = max(largest, m.Bound)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != largest) {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound; got %+v", m)
		}
	}
	if _, ok := e2e["setup_s"]; !ok {
		t.Error("BENCHMARK.json has no setup_s")
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better %q", m.Name, m.Better)
		}
	}
	sameMetrics(t, "end-to-end table", endToEndUnits, e2e)
	sameMetrics(t, "per-layer table", perLayerUnits, layers)
}

// TestSmokeEveryWorkload runs every workload at toy size with the
// system in process, untraced and traced, and requires a correct run
// that emits exactly the metrics BENCHMARK.json names, with units, and
// end-to-end values that are never zero.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkJSON(t)
	e2eUnits, layerUnits := make(map[string]string), make(map[string]string)
	for _, m := range b.EndToEnd {
		e2eUnits[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	for _, bw := range b.Workloads {
		t.Run(bw.Name, func(t *testing.T) {
			w, err := WorkloadByName(bw.Name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			e2e, layers, err := runBoth(Config{
				Workload: w.Toy(),
				Seed:     1,
				Duration: 400 * time.Millisecond,
				Trace:    true,
				WorkDir:  dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Result{e2e, layers} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d, errors %v", r.Attempted, r.Failed, r.Errors)
				}
			}
			sameMetrics(t, "untraced run", e2e.Metrics, e2eUnits)
			sameMetrics(t, "traced run", layers.Metrics, layerUnits)
			for _, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v; the gated metrics are never 0", m.Name, m.Value)
				}
			}
			st, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json"))
			if err != nil || st.Size() == 0 {
				t.Fatalf("no span file: %v", err)
			}
		})
	}
}
