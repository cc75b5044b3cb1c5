// Command perfbench is the repository's benchmark: it runs one named
// workload on the serial simulation engine for a fixed host-time
// budget, checks every output, and prints its metrics as one JSON
// object on the last line of standard output.
//
// Untraced runs (-trace 0) report the end-to-end metrics. Traced runs
// (-trace 1) alternate untraced and traced repetitions, the traced ones
// under a PMPI-style interposer over mpi.Env/mpi.Window and a CPU
// profile, then run every paper experiment once, and report the
// per-layer metrics. Every host time is
// rescaled to a reference host speed measured by a calibration kernel
// (see calibrate.go).
//
// Build and run it through run.py, which sets up the toolchain
// environment:
//
//	python3 perfbench/run.py --workload acc_casper --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// gomaxprocs is the GOMAXPROCS the benchmark runs at: the serial engine
// runs one process at a time, and extra Ps only add scheduler and GC
// cross-talk (about 30% slower at 2 on a 2-CPU host).
const gomaxprocs = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // workload size; 1 is the benchmark's
	minReps  int     // measured repetitions to run even past the budget
	perturb  bool
	profDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: acc_casper, put_plain_hw or ccsd_ga")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds of measured repetitions")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.StringVar(&o.profDir, "profdir", filepath.Join(".bench_build", "prof"), "directory for CPU profiles")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 1
	o.minReps = 2
	runtime.GOMAXPROCS(gomaxprocs)
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// rep is one timed repetition.
type rep struct {
	out       repOut
	traced    bool
	tr        *tracer
	wall      float64 // host seconds
	mallocs   float64
	gcs       float64
	gcPauseMs float64
	cal       float64 // calibration kernel seconds around this repetition
}

// rescaled returns host seconds x, measured while the calibration
// kernel took cal seconds, at the reference host speed.
func rescaled(x, cal float64) float64 { return x * calRefSeconds / cal }

// seconds is the repetition's host time, rescaled.
func (r rep) seconds() float64 { return rescaled(r.wall, r.cal) }

// timeRep runs one repetition from a freshly collected heap.
func timeRep(wl workload, c *repCtx) rep {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out := wl.run(c)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return rep{
		out:       out,
		traced:    c.tracer != nil,
		tr:        c.tracer,
		wall:      wall,
		mallocs:   float64(after.Mallocs - before.Mallocs),
		gcs:       float64(after.NumGC - before.NumGC),
		gcPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// run executes the workload: a discarded warm-up repetition, then
// measured repetitions until the time budget is spent (alternating
// untraced and traced ones when tracing, followed by sweepProbe), and
// returns the metrics. Every repetition's outputs are checked; a
// repetition fails when a check fails or its simulated statistics
// differ from the warm-up's.
func run(o options, log io.Writer) (result, error) {
	wl, ok := findWorkload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	fmt.Fprintf(log, "# perfbench workload=%s seed=%d seconds=%g trace=%v go=%s nproc=%d gomaxprocs=%d\n",
		wl.name, o.seed, o.seconds, o.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var profiles []string
	if o.trace {
		if err := os.MkdirAll(o.profDir, 0o755); err != nil {
			return result{}, err
		}
	}
	res := result{Metrics: make(map[string]metric)}
	record := func(fails []string) {
		res.Attempted++
		if len(fails) > 0 {
			res.Failed++
			for i, f := range fails {
				if i == 5 {
					fmt.Fprintf(os.Stderr, "perfbench: ... %d more\n", len(fails)-i)
					break
				}
				fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
			}
		}
	}
	var firstTraced *rep // reference for the interposer's counts
	check := func(r *rep, ref *rep) {
		fails := r.out.failures
		if ref != nil && r.out.fingerprint != ref.out.fingerprint {
			fails = append(fails, "simulated statistics differ from the warm-up repetition")
		}
		if r.traced {
			if firstTraced == nil {
				firstTraced = r
			} else if f := firstTraced.tr; r.tr.calls != f.calls || r.tr.bytes != f.bytes || r.tr.wait != f.wait {
				fails = append(fails, "interposer counts differ between traced repetitions")
			}
		}
		record(fails)
	}

	ctx := func(tr *tracer) *repCtx {
		return &repCtx{seed: o.seed, scale: o.scale, tracer: tr, perturb: o.perturb}
	}
	// The report lists every repetition in the order run.
	warm := timeRep(wl, ctx(nil))
	check(&warm, nil)
	fmt.Fprintf(log, "# rep warmup wall=%.4fs (discarded)\n", warm.wall)
	var reps []rep
	calPrev := calibrate()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < o.minReps || time.Now().Before(deadline); i++ {
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = newTracer()
			path := filepath.Join(o.profDir, fmt.Sprintf("%s-%d-%d.pprof", wl.name, o.seed, i))
			f, err := os.Create(path)
			if err != nil {
				return result{}, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return result{}, err
			}
			r := timeRep(wl, ctx(tr))
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return result{}, err
			}
			profiles = append(profiles, path)
			reps = append(reps, r)
		} else {
			reps = append(reps, timeRep(wl, ctx(nil)))
		}
		r := &reps[len(reps)-1]
		calNext := calibrate()
		r.cal, calPrev = (calPrev+calNext)/2, calNext
		check(r, &warm)
		fmt.Fprintf(log, "# rep %d traced=%v wall=%.4fs calibration=%.5fs gcs=%g\n", i, r.traced, r.wall, r.cal, r.gcs)
	}
	var sweepWall map[string]float64
	if o.trace {
		var fails []string
		sweepWall, fails = sweepProbe(ctx(nil))
		record(fails)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "%-28s %14.6g        (%d of %d checked runs)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)

	var plain, traced []rep
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	col := func(rs []rep, f func(r rep) float64) []float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return xs
	}
	add := func(name, unit string, xs []float64) {
		s := summarize(xs)
		res.Metrics[name] = metric{Value: s.Median, Unit: unit}
		fmt.Fprintf(log, "%-28s %14.6g %-6s q1=%.6g q3=%.6g n=%d\n", name, s.Median, unit, s.Q1, s.Q3, s.N)
	}
	one := func(name, unit string, v float64) { add(name, unit, []float64{v}) }

	wall := col(plain, rep.seconds)
	fmt.Fprintf(log, "# host seconds per repetition before rescaling: median %.6g, calibration median %.6g\n",
		median(col(plain, func(r rep) float64 { return r.wall })), median(col(plain, func(r rep) float64 { return r.cal })))
	cal0 := calibrate()
	setup, coreSetup := setupProbe(ctx(nil), wl)
	setupCal := (cal0 + calibrate()) / 2
	for i := range setup {
		setup[i] = rescaled(setup[i], setupCal)
		coreSetup[i] = rescaled(coreSetup[i], setupCal)
	}
	if !o.trace {
		add("wall_s", "s", wall)
		add("setup_s", "s", setup)
		one("peak_mem_mb", "MB", peakMemMB())
		add("allocs", "count", col(plain, func(r rep) float64 { return r.mallocs }))
		return res, nil
	}

	// Per-layer metrics. The simulated counters repeat exactly, so the
	// last traced repetition stands for all of them.
	ws, _ := wl.world(ctx(nil))
	last := traced[len(traced)-1]
	out, tr := last.out, last.tr
	s := out.summary
	wallMed := median(wall)
	one("sim.events", "count", float64(out.events))
	one("sim.events_per_s", "1/s", float64(out.events)/wallMed)
	one("sim.inlined_advances", "count", float64(out.inlined))
	one("sim.peak_queue", "count", float64(out.peakQueue))
	cal0 = calibrate()
	schedNs := schedProbe(out.peakQueue)
	handoffNs := handoffProbe(ws.nodes * ws.ppn)
	netNs := netmodelProbe(ws.net(), tr.mix)
	probeCal := (cal0 + calibrate()) / 2
	one("sim.sched_ns", "ns", rescaled(schedNs, probeCal))
	one("sim.handoff_ns", "ns", rescaled(handoffNs, probeCal))

	var calls, bytes int64
	for k := callKind(0); k < numKinds; k++ {
		one("mpi.calls."+kindNames[k], "count", float64(tr.calls[k]))
		calls += tr.calls[k]
		bytes += tr.bytes[k]
	}
	one("mpi.calls", "count", float64(calls))
	one("mpi.bytes", "B", float64(bytes))
	flushWait := 0.0
	if n := tr.calls[kindSync]; n > 0 {
		flushWait = tr.wait[kindSync].Micros() / float64(n)
	}
	one("mpi.flush_wait_us", "us", flushWait)
	one("mpi.rma_ops", "count", float64(s.OpsIssued))
	one("mpi.sw_ams", "count", float64(s.SoftwareAMs))
	one("mpi.hw_ops", "count", float64(s.HardwareOps))
	one("mpi.messages", "count", float64(s.MessagesSent))
	one("mpi.interrupts", "count", float64(s.Interrupts))
	one("mpi.peak_am_queue", "count", float64(s.PeakQueueDepth))

	ghostFrac := 0.0
	if s.SoftwareAMs > 0 {
		ghostFrac = float64(out.ghostAMs) / float64(s.SoftwareAMs)
	}
	one("core.ghost_am_frac", "frac", ghostFrac)
	add("core.setup_s", "s", coreSetup)

	one("netmodel.ns", "ns", rescaled(netNs, probeCal))

	add("go.gc_cycles", "count", col(plain, func(r rep) float64 { return r.gcs }))
	add("go.gc_pause_ms", "ms", col(plain, func(r rep) float64 { return r.gcPauseMs }))
	one("trace.overhead_s", "s", median(col(traced, rep.seconds))-wallMed)

	shares, err := profileShares(profiles)
	for _, p := range profiles {
		_ = os.Remove(p) // scratch files; a leftover one is harmless
	}
	if err != nil {
		return result{}, err
	}
	for _, l := range cpuLayers {
		one("cpu."+l, "frac", shares[l])
	}

	for _, e := range bench.All() {
		one("sweep."+e.ID+".wall_s", "s", sweepWall[e.ID])
	}
	return res, nil
}

// peakMemMB returns the process's peak resident set (VmHWM) in MiB,
// falling back to the Go runtime's total reservation where /proc is
// unavailable.
func peakMemMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
