package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// Layers of CPU samples, reported as cpu.<layer>: the share of all
// samples whose stack is attributed to that layer.
var cpuLayers = []string{"sched", "handoff", "mpi", "core", "netmodel", "datapath", "gc", "other"}

// frameRule maps frames whose function name starts with prefix to a
// layer. A layer of "" marks a frame as transparent: the sample is
// attributed to the nearest caller that a rule claims.
type frameRule struct {
	prefix, layer string
}

// frameTable is the map from sample frames to layers. classify walks a
// stack from the leaf towards the root and stops at the first frame a
// rule claims; the first matching rule wins, so specific prefixes come
// before the package-wide ones. A stack that no rule claims is "other".
var frameTable = []frameRule{
	// Go runtime: allocation and garbage collection.
	{"runtime.mallocgc", "gc"},
	{"runtime.newobject", "gc"},
	{"runtime.makeslice", "gc"},
	{"runtime.gcBgMarkWorker", "gc"},
	{"runtime.gcDrain", "gc"},
	{"runtime.gcAssistAlloc", "gc"},
	{"runtime.scanobject", "gc"},
	{"runtime.scanblock", "gc"},
	{"runtime.scanstack", "gc"},
	{"runtime.markroot", "gc"},
	{"runtime.greyobject", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.bgscavenge", "gc"},
	{"runtime.sweepone", "gc"},
	{"runtime.gcStart", "gc"},
	{"runtime.gcMarkDone", "gc"},
	{"runtime.gcMarkTermination", "gc"},
	{"runtime.GC", "gc"},
	// Go runtime: goroutine park and resume, the process handoff.
	{"runtime.chanrecv", "handoff"},
	{"runtime.chansend", "handoff"},
	{"runtime.gopark", "handoff"},
	{"runtime.goready", "handoff"},
	{"runtime.ready", "handoff"},
	{"runtime.park_m", "handoff"},
	{"runtime.mcall", "handoff"},
	{"runtime.schedule", "handoff"},
	{"runtime.findRunnable", "handoff"},
	{"runtime.execute", "handoff"},
	{"runtime.gogo", "handoff"},
	{"runtime.casgstatus", "handoff"},
	{"runtime.lock2", "handoff"},
	{"runtime.unlock2", "handoff"},
	{"runtime.selectgo", "handoff"},
	{"runtime.newproc", "handoff"},
	// Everything else in the runtime (memmove, memclr, hashing,
	// systemstack, ...) is charged to its caller.
	{"runtime.", ""},
	{"internal/", ""},
	{"sync.", ""},
	// sim: the process handoff, then the scheduler.
	{"repro/internal/sim.(*Proc)", "handoff"},
	{"repro/internal/sim.(*Signal)", "handoff"},
	{"repro/internal/sim.(*Completion", "handoff"},
	{"repro/internal/sim.", "sched"},
	// Host data path: Global Arrays, the contraction engine, and the
	// datatype pack/unpack and reduction kernels of mpi.
	{"repro/internal/ga.", "datapath"},
	{"repro/internal/tce.", "datapath"},
	{"repro/internal/mpi.Datatype.", "datapath"},
	{"repro/internal/mpi.applyElem", "datapath"},
	{"repro/internal/mpi.combine", "datapath"},
	{"repro/internal/mpi.accumulate", "datapath"},
	{"repro/internal/mpi.gather", "datapath"},
	{"repro/internal/mpi.PutFloat64s", "datapath"},
	{"repro/internal/mpi.GetFloat64s", "datapath"},
	{"repro/internal/mpi.PutInt64", "datapath"},
	{"repro/internal/mpi.GetInt64", "datapath"},
	{"encoding/binary.", "datapath"},
	{"math.", "datapath"},
	// The MPI runtime and its fault, tracing and placement helpers.
	{"repro/internal/mpi.", "mpi"},
	{"repro/internal/fault.", "mpi"},
	{"repro/internal/trace.", "mpi"},
	{"repro/internal/cluster.", "mpi"},
	{"repro/internal/core.", "core"},
	{"repro/internal/netmodel.", "netmodel"},
	// The benchmark's own code and the experiment harness.
	{"main.", "other"},
	{"repro/internal/bench.", "other"},
}

// classify returns the layer of a sample stack, given leaf first.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, r := range frameTable {
			if strings.HasPrefix(fn, r.prefix) {
				if r.layer != "" {
					return r.layer
				}
				break
			}
		}
	}
	return "other"
}

// profileShares runs `go tool pprof -traces` over the CPU profiles and
// returns each layer's share of the sampled CPU time.
func profileShares(files []string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces reads the text of `go tool pprof -traces`: blocks
// separated by dashed lines, each starting with the sample's value
// followed by the leaf frame, then one caller frame per line.
func parseTraces(text []byte) (map[string]float64, error) {
	by := make(map[string]time.Duration)
	var total time.Duration
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			by[classify(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	inTraces, first := false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces, first = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inTraces || len(fields) == 0 {
			continue
		}
		if first {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value, first = d, false
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	// A profile too short to hold a sample (the smoke tests' tiny
	// worlds) gives every layer a share of zero.
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(by[l]) / float64(total)
		}
	}
	return shares, sc.Err()
}
