package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
)

// sweepScale is the reduced scale sweepProbe runs every experiment at.
const sweepScale = 0.12

// sweepDigestSeed is the seed at which sweepDigests were recorded (the
// experiments' default seed).
const sweepDigestSeed = 42

// sweepDigests are the first 16 hex digits of the SHA-256 of each
// experiment's CSV at sweepScale and sweepDigestSeed. A change that
// alters any experiment's output fails the traced run at that seed.
var sweepDigests = map[string]string{
	"abl1":         "8ac0a4d19b19c956",
	"abl2":         "e98971f89c29c6e0",
	"abl3":         "aa6fcee7898256ed",
	"faultapp":     "3a1a785adfefc76e",
	"faultchaos":   "e6c7ae13759f754e",
	"faultrecover": "58655835f2c6f4bf",
	"faultsweep":   "691f6c64b2ffe84e",
	"faultzero":    "ba404dd32c16f47d",
	"fig3a":        "8d7974eee415783b",
	"fig3b":        "ee7c351d346d32c5",
	"fig4a":        "738898c3bc16f8bc",
	"fig4b":        "d048b0694b19bc74",
	"fig4c":        "fda913f72aedfe3e",
	"fig5a":        "be529a8927f80ca1",
	"fig5b":        "a1288ef0d537d556",
	"fig5c":        "4e38c9895e6eb32c",
	"fig6a":        "23db0cf38589daae",
	"fig6b":        "5cd497b9a8f199f9",
	"fig6c":        "3ad2fbf00f107228",
	"fig7a":        "8d05e31f1ab3fefc",
	"fig7b":        "0df5f8fd7911c7e7",
	"fig7c":        "88c8076b529c0851",
	"fig8a":        "3b38cef16e85e5ab",
	"fig8b":        "16269e66f4b99387",
	"fig8c":        "b1e64d8996958eb3",
	"overload":     "cf13cc584ec0d7bc",
	"tab1":         "0a1ef0f9a5f4814c",
}

// sweepProbe runs every registered experiment once, serially, through
// Experiment.Run at sweepScale, and returns each experiment's host
// seconds, rescaled with a calibration around it, and the failed checks:
// Result.Failed, and at sweepDigestSeed a CSV that differs from the
// recorded one. It is the bench layer's probe, and the only part of the
// benchmark that drives the thread and interrupt progress modes, fault
// injection, reliable transport, flow control and recovery.
func sweepProbe(c *repCtx) (wall map[string]float64, failures []string) {
	wall = make(map[string]float64)
	cal := calibrate()
	for _, e := range bench.All() {
		// Collect the previous experiment's garbage first, so each
		// experiment's time is its own.
		runtime.GC()
		t0 := time.Now()
		res := e.Run(bench.Options{Scale: sweepScale * c.scale, Seed: c.seed, Parallel: 1})
		sec := time.Since(t0).Seconds()
		next := calibrate()
		wall[e.ID] = rescaled(sec, (cal+next)/2)
		cal = next
		if res.Failed {
			failures = append(failures, e.ID+": result marked failed")
		}
		sum := sha256.Sum256([]byte(res.CSV()))
		digest := fmt.Sprintf("%x", sum[:8])
		want, recorded := sweepDigests[e.ID]
		recorded = recorded && c.scale == 1 && c.seed == sweepDigestSeed
		if c.perturb {
			want, recorded = "perturbed", true
		}
		if recorded && digest != want {
			failures = append(failures, fmt.Sprintf("%s: csv digest %s, recorded %s", e.ID, digest, want))
		}
	}
	return wall, failures
}
