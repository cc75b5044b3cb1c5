package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs a workload at a small scale: a warm-up and the fewest
// repetitions the mode needs.
func smoke(t *testing.T, name string, trace, perturb bool) result {
	t.Helper()
	o := options{workload: name, seed: 7, scale: 0.1, minReps: 1, trace: trace,
		perturb: perturb, profDir: t.TempDir()}
	if trace {
		o.minReps = 2
	}
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range loadSpec(t).Workloads {
		want = append(want, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
}

// TestSmokeEmitsEveryMetric runs every workload at a short scale, untraced
// and traced, and checks that exactly the metrics BENCHMARK.json names are
// emitted, with its units, and that every output check passed.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range s.EndToEnd {
				want[m.Name] = m.Unit
			}
			if trace {
				want = map[string]string{}
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			res := smoke(t, w.name, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace,
					res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s in %s, BENCHMARK.json says %s", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
			if !trace {
				continue
			}
			// Each workload bypasses the layer it is meant to bypass.
			switch w.name {
			case "put_plain_hw":
				for _, name := range []string{"core.ghost_am_frac", "mpi.sw_ams"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("put_plain_hw: %s = %v, want 0", name, v)
					}
				}
			case "acc_casper":
				if v := res.Metrics["mpi.hw_ops"].Value; v != 0 {
					t.Errorf("acc_casper: mpi.hw_ops = %v, want 0", v)
				}
				if v := res.Metrics["core.ghost_am_frac"].Value; v != 1 {
					t.Errorf("acc_casper: core.ghost_am_frac = %v, want 1", v)
				}
			}
		}
	}
}

// TestPerturbedExpectationFails corrupts one expected value per workload
// and checks that every repetition is then counted as failed.
func TestPerturbedExpectationFails(t *testing.T) {
	for _, w := range workloads {
		res := smoke(t, w.name, false, true)
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v failed=%d of %d, want every repetition failed",
				w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
	if _, fails := sweepProbe(&repCtx{seed: 7, scale: 0.1, perturb: true}); len(fails) != len(sweepDigests) {
		t.Errorf("sweep with a corrupted digest: %d failures, want one per experiment (%d)", len(fails), len(sweepDigests))
	}
}

// TestLayerMapCoversEveryMetric checks that layers.json assigns every
// per-layer metric of BENCHMARK.json to a layer.
func TestLayerMapCoversEveryMetric(t *testing.T) {
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Layers []struct{ Metrics []string } `json:"layers"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, l := range m.Layers {
		for _, name := range l.Metrics {
			mapped[name] = true
		}
	}
	for _, pl := range loadSpec(t).PerLayer {
		name := pl.Name
		if strings.HasPrefix(name, "sweep.") {
			name = "sweep.<id>.wall_s"
		}
		if !mapped[name] {
			t.Errorf("per-layer metric %s is in no layer of layers.json", pl.Name)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("summarize(1..10) = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Fatalf("summarize(1,2,4) = %+v", s)
	}
}

func TestParseTracesAttributesLayers(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.lock2
             runtime.chanrecv
             repro/internal/sim.(*Proc).park
             repro/internal/mpi.(*Rank).Compute
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             repro/internal/ga.(*Array).Get
             repro/internal/tce.Run
-----------+-------------------------------------------------------
      20ms   repro/internal/sim.(*ladder).pop
             repro/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
      10ms   runtime.nextFreeFast (inline)
             runtime.mallocgc
             repro/internal/core.(*casperWin).Accumulate
-----------+-------------------------------------------------------
      10ms   repro/internal/core.(*casperWin).Accumulate
             main.(*tracedWin).Accumulate
-----------+-------------------------------------------------------
      10ms   runtime.memclrNoHeapPointers
             main.allToAll.func1
-----------+-------------------------------------------------------
`
	got, err := parseTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"handoff": 0.3, "datapath": 0.2, "sched": 0.2, "gc": 0.1, "core": 0.1, "other": 0.1}
	for _, l := range cpuLayers {
		if d := got[l] - want[l]; d > 1e-9 || d < -1e-9 {
			t.Errorf("cpu.%s = %v, want %v", l, got[l], want[l])
		}
	}
}
