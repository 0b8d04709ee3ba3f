// Command fleetbench is the fleet simulator's end-to-end and per-layer
// benchmark. It drives the simulator only through its public API, checks
// every timed run's output against the reference interpreter, and prints
// one JSON result line.
//
//	bash fleetbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/machine"
)

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 15

// tracedFirst is the seed index of the first traced iteration. It is
// fixed, so the counts a traced run reports from that iteration depend on
// --seed alone, not on how many untraced iterations fit in the budget.
const tracedFirst = 1 << 20

// rollupCounters are the rollup counters the traced run reads, summed
// over each iteration's fleets. Each is reported under its metric name,
// except core.compile_failures, which only feeds core.compile_ok_ratio.
var rollupCounters = []struct{ metric, subsystem, name string }{
	{"contend.migrations", "contend", "migrations_total"},
	{"contend.moves_failed", "contend", "moves_failed_total"},
	{"contend.move_retries", "contend", "move_retries_total"},
	{"contend.breaker_trips", "contend", "breaker_trips_total"},
	{"core.compiles", "core", "compiles_total"},
	{"core.compile_failures", "core", "compile_failures_total"},
	{"pc3d.variant_evals", "pc3d", "variant_evals_total"},
	{"pc3d.nap_probes", "pc3d", "nap_probes_total"},
	{"supervise.restarts", "supervise", "restarts_total"},
	{"slo.alerts_fired", "slo", "alerts_fired_total"},
	{"slo.postmortems", "slo", "postmortems_total"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep|compute-gated|diurnal-control")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "seconds of timed iterations")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_build/fleetbench-out", "directory for traces and CPU profiles")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fleetbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("host: cpu=%q nproc=%d go=%s workers=%d\n", cpuModel(), runtime.NumCPU(), runtime.Version(), benchWorkers)
	if err := run(w, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

// invocation is what one run of the benchmark measured.
type invocation struct {
	tr *tracer // nil when untraced
	// setup is the last set-up pass; setupS times every pass.
	setup  setupResult
	setupS []float64
	// apps are the calibrated apps; solo their solo runs on the default
	// engine (compute-gated and traced runs only).
	apps        []string
	soloSeed    int64
	soloSeconds float64
	solo        *soloSet
	// untraced and traced are the timed iterations of each half; prof is
	// the CPU profile of the traced half.
	untraced, traced []iteration
	prof             *cpuProfile
}

func run(w workloadDef, seed int64, seconds float64, traced bool, outDir string) error {
	inv := &invocation{}
	if traced {
		inv.tr = newTracer()
	}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if inv.setup, err = runSetup(w, seed, inv.tr); err != nil {
			return err
		}
		inv.setupS = append(inv.setupS, time.Since(t0).Seconds())
	}

	inv.apps, inv.soloSeed, inv.soloSeconds = soloApps(w, seed)
	var cache *cacheCounts
	if w.soloCache || traced {
		solo, err := runSolos(inv.apps, inv.setup.plain, inv.soloSeed, machine.DefaultEngine, inv.soloSeconds, inv.tr)
		if err != nil {
			return err
		}
		inv.solo, cache = &solo, &solo.cache
	}

	// At least two iterations run, so each metric is a median of two or
	// more. A traced invocation splits its time: the first half untraced
	// (the baseline of trace.overhead), the second traced.
	const minIters = 2
	budget := seconds
	if traced {
		budget = seconds / 2
	}
	// One warm-up iteration first, on a seed no timed iteration uses: the
	// first pass over a workload grows the heap and runs slower. It is
	// neither timed nor counted.
	runIteration(w, seed, -1, cache, nil)
	inv.untraced = timedLoop(w, seed, 0, budget, minIters, cache, nil)
	maxRSS := maxRSSMiB()
	if traced {
		var err error
		if inv.traced, inv.prof, err = tracedLoop(w, seed, budget, minIters, cache, inv.tr, traceDir(outDir, w.name, seed)); err != nil {
			return err
		}
	}

	// The correctness gate, outside every timed section.
	its := append(append([]iteration(nil), inv.untraced...), inv.traced...)
	checkAgainstReference(w, its)
	var errs []error
	attempted := 0
	for _, it := range its {
		attempted += len(it.errs)
		for _, err := range it.errs {
			if err != nil {
				errs = append(errs, fmt.Errorf("seed %d: %w", it.seed, err))
			}
		}
	}

	var values map[string]float64
	specs := endToEnd
	if traced {
		specs = perLayer
		var err error
		// The engine comparison is one more checked operation.
		attempted++
		if values, err = inv.layerMetrics(&errs); err != nil {
			return err
		}
		values["failed_frac"] = ratio(float64(len(errs)), float64(attempted))
		if err := writeTrace(inv.tr, traceDir(outDir, w.name, seed)); err != nil {
			return err
		}
	} else {
		values = map[string]float64{
			"setup_s":              median(inv.setupS),
			"wall_s":               medianOf(inv.untraced, func(it iteration) float64 { return it.wallS }),
			"fleet_quanta_per_sec": medianOf(inv.untraced, func(it iteration) float64 { return float64(it.quanta) / it.wallS }),
			"cpu_s":                medianOf(inv.untraced, func(it iteration) float64 { return it.cpuS }),
			"max_rss_mb":           maxRSS,
			"alloc_mb":             medianOf(inv.untraced, func(it iteration) float64 { return float64(it.allocB) / (1 << 20) }),
		}
	}
	for _, err := range errs {
		fmt.Println("failed:", err)
	}
	fmt.Printf("summary: workload=%s seed=%d iterations=%d attempted=%d failed=%d failed_frac=%g\n",
		w.name, seed, len(its), attempted, len(errs), ratio(float64(len(errs)), float64(attempted)))
	return emit(os.Stdout, specs, values, attempted, len(errs))
}

// traceDir is where a traced run writes its spans and CPU profile.
func traceDir(outDir, workload string, seed int64) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
}

// medianOf is the median of f over its.
func medianOf(its []iteration, f func(iteration) float64) float64 {
	vs := make([]float64, len(its))
	for i, it := range its {
		vs[i] = f(it)
	}
	return median(vs)
}

// tracedLoop runs the traced half of the timed iterations under a CPU
// profile written into dir, and returns the parsed profile.
func tracedLoop(w workloadDef, seed int64, budget float64, minIters int, cache *cacheCounts, tr *tracer, dir string) ([]iteration, *cpuProfile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	its := timedLoop(w, seed, tracedFirst, budget, minIters, cache, tr)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	prof, err := parseCPUProfile(data)
	return its, prof, err
}

// layerMetrics computes the per-layer metrics of a traced run. It appends
// to errs when the two engines disagree on a solo run.
func (inv *invocation) layerMetrics(errs *[]error) (map[string]float64, error) {
	tr, solo := inv.tr, inv.solo
	values := map[string]float64{
		"workload.build_ms": median(tr.sumByParentMS("setup", "workload.build")),
		"pcc.compile_ms":    median(tr.sumByParentMS("setup", "pcc.compile")),
		"pcc.binaries":      float64(inv.setup.binaries),
		"pcc.text_words":    float64(inv.setup.textWords),
	}

	// Engines: the same solo runs on the reference interpreter.
	interp, err := runSolos(inv.apps, inv.setup.plain, inv.soloSeed, machine.EngineInterp, inv.soloSeconds, nil)
	if err != nil {
		return nil, err
	}
	if err := compareEngines(inv.apps, *solo, interp); err != nil {
		*errs = append(*errs, err)
	}
	var soloMS []float64
	for _, s := range solo.hostS {
		soloMS = append(soloMS, s*1000)
	}
	values["machine.solo_ms"] = median(soloMS)
	values["machine.insts_per_s"] = float64(solo.insts) / solo.totalS
	values["machine.interp_insts_per_s"] = float64(interp.insts) / interp.totalS
	values["machine.engine_speedup"] = ratio(values["machine.insts_per_s"], values["machine.interp_insts_per_s"])
	if values["machine_insts_per_sec"], err = machineInstsPerSec(time.Second); err != nil {
		return nil, err
	}

	c := solo.cache
	values["cache.loads"] = float64(c.Loads)
	values["cache.l1_hit_ratio"] = ratio(float64(c.L1.Hits), float64(c.L1.Accesses))
	values["cache.l2_walks_per_load"] = ratio(float64(c.L2.Accesses), float64(c.Loads))
	values["cache.llc_walks_per_load"] = ratio(float64(c.LLC.Accesses), float64(c.Loads))
	values["cache.llc_hit_ratio"] = ratio(float64(c.LLC.Hits), float64(c.LLC.Accesses))

	const repo = "repro/internal/"
	prof := inv.prof
	values["cache.cpu_share"] = prof.share(leafIn(repo + "cache"))
	values["machine.dispatch_cpu_share"] = prof.share(leafIn(repo + "machine"))
	values["fleet.calibrate_cpu_share"] = prof.share(under(repo + "fleet.(*Fleet).calibrate"))
	values["fleet.simulate_cpu_share"] = prof.share(under(repo+"fleet.(*serverSim).advanceTo", repo+"fleet.(*serverSim).finish"))
	values["fleet.barrier_cpu_share"] = prof.share(under(repo+"fleet.(*migrator).barrier", repo+"fleet.(*sloObserver).barrier", repo+"fleet.(*auditor).check"))
	values["pc3d.cpu_share"] = prof.share(anyIn(repo+"pc3d", repo+"core", repo+"supervise", repo+"sampling"))
	values["telemetry.merge_cpu_share"] = prof.share(under(repo + "telemetry.(*Registry).MergeFrom"))

	values["fleet.new_ms"] = median(tr.childDurationsMS("iteration", "fleet.new"))
	values["fleet.run_ms"] = median(tr.childDurationsMS("iteration", "fleet.run"))
	values["telemetry.export_ms"] = median(tr.sumByParentMS("iteration", "telemetry.export"))
	values["fleet.export_ms"] = median(tr.sumByParentMS("iteration", "fleet.export"))
	// Counts come from the first traced iteration: exact, and fixed by the
	// seed.
	first := inv.traced[0]
	values["export_bytes"] = float64(first.bytes)
	values["fleet.quanta"] = float64(first.quanta)
	values["fleet.barriers"] = float64(first.barriers)
	for _, rc := range rollupCounters {
		values[rc.metric] = first.counts[rc.metric]
	}
	mig, compiles := first.counts["contend.migrations"], first.counts["core.compiles"]
	values["contend.land_ratio"] = ratio(mig, mig+first.counts["contend.moves_failed"])
	values["core.compile_ok_ratio"] = ratio(compiles, compiles+first.counts["core.compile_failures"])

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	values["go.gc_cpu_fraction"] = ms.GCCPUFraction
	// The halves simulate different seeds, so compare work rates.
	rate := func(it iteration) float64 { return float64(it.quanta) / it.wallS }
	values["trace.overhead"] = ratio(medianOf(inv.untraced, rate), medianOf(inv.traced, rate))
	return values, nil
}

// writeTrace writes the traced run's spans beside its CPU profile.
func writeTrace(tr *tracer, dir string) error {
	path := filepath.Join(dir, "spans.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %s and cpu.pprof beside it\n", path)
	return nil
}

// cpuModel reads the host CPU model name ("unknown" where unreadable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
