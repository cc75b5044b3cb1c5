package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// gateRun is a -bench result of fig5a at the committed baseline's
// configuration, with the given serial counters.
func gateRun(allocsPerEvent, eventsPerSec float64) *baseline {
	return &baseline{Experiment: "fig5a", Scale: 0.5, Seed: 42,
		Serial: bench.Measurement{AllocsPerEvent: allocsPerEvent, EventsPerSec: eventsPerSec}}
}

// TestGatesReadCommittedBaseline checks both gates against the
// committed BENCH_fig5a.json: a run within slack passes, a regressed
// one fails.
func TestGatesReadCommittedBaseline(t *testing.T) {
	const path = "../../BENCH_fig5a.json"
	if err := checkAllocGate(path, gateRun(0.07, 0)); err != nil {
		t.Errorf("allocgate within slack: %v", err)
	}
	if err := checkAllocGate(path, gateRun(0.2, 0)); err == nil {
		t.Error("allocgate passed 0.2 allocs/event")
	}
	if err := checkSchedGate(path, gateRun(0, 3e6)); err != nil {
		t.Errorf("schedgate within slack: %v", err)
	}
	if err := checkSchedGate(path, gateRun(0, 1e6)); err == nil {
		t.Error("schedgate passed 1M events/sec")
	}
}

// TestGatesRejectUnlikeRuns checks that both gates refuse to compare a
// run against a baseline of another experiment, scale or seed, even
// when the counters would pass.
func TestGatesRejectUnlikeRuns(t *testing.T) {
	const path = "../../BENCH_fig5a.json"
	unlike := map[string]func(b *baseline){
		"experiment": func(b *baseline) { b.Experiment = "fig5b" },
		"scale":      func(b *baseline) { b.Scale = 0.12 },
		"seed":       func(b *baseline) { b.Seed = 7 },
	}
	for name, mutate := range unlike {
		run := gateRun(0.07, 3e6)
		mutate(run)
		for gate, check := range map[string]func(string, *baseline) error{
			"allocgate": checkAllocGate, "schedgate": checkSchedGate} {
			err := check(path, run)
			if err == nil || !strings.Contains(err.Error(), gate+": ") {
				t.Errorf("%s with another %s: err = %v, want a refusal", gate, name, err)
			}
		}
	}
}

// TestGateBaselineErrors covers a missing and a malformed baseline.
func TestGateBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.json"), bad} {
		if err := checkAllocGate(path, gateRun(0, 0)); err == nil {
			t.Errorf("allocgate accepted %s", path)
		}
	}
}
