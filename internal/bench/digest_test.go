package bench

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestExperimentDigests pins real experiments, rendered to bytes, at
// the first 16 hex digits of the SHA-256 of their CSV. Together with
// the lockstep tests of the ladder queue against the heap oracle in
// internal/sim, it guards the scheduler's determinism contract: any
// change in event order that reaches an experiment moves its digest.
// The values are the ones perfbench records in sweepDigests.
func TestExperimentDigests(t *testing.T) {
	for _, c := range []struct{ id, digest string }{
		{"fig5a", "be529a8927f80ca1"},
		{"fig5b", "a1288ef0d537d556"},
		{"faultrecover", "58655835f2c6f4bf"},
	} {
		e, ok := Get(c.id)
		if !ok {
			t.Fatalf("%s not registered", c.id)
		}
		for _, p := range []int{1, 2} {
			sum := sha256.Sum256([]byte(e.Run(Options{Scale: 0.12, Seed: 42, Parallel: p}).CSV()))
			if got := fmt.Sprintf("%x", sum[:8]); got != c.digest {
				t.Errorf("%s -parallel %d: csv digest %s, want %s", c.id, p, got, c.digest)
			}
		}
	}
}
