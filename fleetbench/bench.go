package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// benchWorkers is the fleet worker count of every timed run: the
// two-vCPU host the benchmark was sized on, or fewer where the host has
// fewer CPUs. Fleet output is identical at any worker count.
var benchWorkers = min(2, runtime.NumCPU())

// opResult is one fleet.Run and the exports it wrote.
type opResult struct {
	cfg     fleet.Config
	metrics fleet.Metrics
	tel     *telemetry.Registry
	exports *bytes.Buffer
	// barriers counts the run's decision-epoch barriers (0 without
	// migration).
	barriers int
	err      error
}

func (r opResult) counter(subsystem, name string) uint64 {
	if r.tel == nil {
		return 0
	}
	return r.tel.CounterValue(subsystem, name)
}

// quanta is the rollup's machine_quanta_total: scheduling quanta executed
// across every server of the run.
func (r opResult) quanta() uint64 { return r.counter("machine", "quanta_total") }

// calibratedApps lists the apps fleet.Run calibrates: the webservice, then
// the batch app of every placed instance (with repeats).
func calibratedApps(cfg fleet.Config) []string {
	n := cfg.Instances
	if n == 0 {
		n = cfg.Servers
	}
	return append([]string{cfg.Webservice}, cfg.Mix.Instances(n)...)
}

// calibratedSet names the distinct apps fleet.Run calibrates.
func calibratedSet(cfg fleet.Config) string {
	seen := map[string]bool{}
	var apps []string
	for _, a := range calibratedApps(cfg) {
		if !seen[a] {
			seen[a] = true
			apps = append(apps, a)
		}
	}
	sort.Strings(apps)
	return strings.Join(apps, "+")
}

// runOp builds one fleet, runs it and writes its exports into memory.
func runOp(cfg fleet.Config, full bool, tr *tracer, parent spanID) opResult {
	res := opResult{cfg: cfg, exports: new(bytes.Buffer)}
	sp := tr.start("fleet.new", parent)
	f, err := fleet.New(cfg)
	tr.end(sp)
	if err != nil {
		res.err = err
		return res
	}
	sp = tr.start("fleet.run", parent)
	res.metrics, res.err = f.Run()
	tr.end(sp)
	if res.err != nil {
		return res
	}
	res.tel = f.Telemetry()
	if rep := f.AuditReport(); rep != nil {
		res.barriers = len(rep.Epochs) - 1 // the last entry is the horizon sweep
	}
	sp = tr.start("telemetry.export", parent)
	err = writeTelemetry(res.exports, res.tel)
	tr.end(sp)
	if err == nil {
		sp = tr.start("fleet.export", parent)
		err = writeFleetExports(res.exports, f, full)
		tr.end(sp)
	}
	res.err = err
	return res
}

// writeTelemetry writes the rollup's Prometheus text and JSONL trace.
func writeTelemetry(w io.Writer, tel *telemetry.Registry) error {
	if err := tel.WritePrometheus(w); err != nil {
		return fmt.Errorf("prometheus export: %w", err)
	}
	if err := tel.WriteJSONL(w); err != nil {
		return fmt.Errorf("jsonl export: %w", err)
	}
	return nil
}

// writeFleetExports writes the fleet deep profile and, when full, every
// control-plane export: contend and audit status, SLO status, alert log,
// the tsdb store and each postmortem bundle.
func writeFleetExports(w io.Writer, f *fleet.Fleet, full bool) error {
	if err := f.WriteProfile(w); err != nil {
		return fmt.Errorf("profile export: %w", err)
	}
	if !full {
		return nil
	}
	if st := f.ContendStatus(); st != nil {
		if err := st.WriteJSON(w); err != nil {
			return fmt.Errorf("contend export: %w", err)
		}
	}
	if rep := f.AuditReport(); rep != nil {
		if err := rep.WriteJSON(w); err != nil {
			return fmt.Errorf("audit export: %w", err)
		}
	}
	if _, err := io.WriteString(w, f.SLOStatusJSON()+f.AlertLogJSON()); err != nil {
		return err
	}
	if err := f.WriteTSDB(w); err != nil {
		return fmt.Errorf("tsdb export: %w", err)
	}
	for _, b := range f.Postmortems() {
		if _, err := io.WriteString(w, b.JSON()); err != nil {
			return err
		}
	}
	return nil
}

// digest hashes a run's deterministic output: the formatted metrics and
// every export it wrote.
func digest(metrics fleet.Metrics, exports []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", metrics)
	h.Write(exports)
	return hex.EncodeToString(h.Sum(nil))
}

// iterSeed derives the fleet seed of timed iteration k from the workload
// seed. Each iteration simulates a fresh seed, so no iteration can reuse
// work an earlier one left in a process-wide cache.
func iterSeed(seed int64, k int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x>>33) + 1
}

// withRun sets the engine and worker count of every config.
func withRun(cfgs []fleet.Config, engine string, workers int) []fleet.Config {
	for i := range cfgs {
		cfgs[i].Engine = engine
		cfgs[i].Workers = workers
	}
	return cfgs
}

// iteration is one timed pass over a workload's fleets.
type iteration struct {
	seed   int64
	wallS  float64
	cpuS   float64
	allocB uint64
	quanta uint64
	bytes  int
	// barriers and counts sum the fleets' barriers and rollupCounters.
	barriers int
	counts   map[string]float64
	digests  []string
	// errs holds one entry per op: its run error, guard failure or
	// digest mismatch (nil when the op succeeded).
	errs []error
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runIteration runs every fleet of the workload once, under seed k of the
// sequence, and checks the workload's guard.
func runIteration(w workloadDef, seed int64, k int, cache *cacheCounts, tr *tracer) iteration {
	it := iteration{seed: iterSeed(seed, k), counts: map[string]float64{}}
	cfgs := withRun(w.configs(it.seed), machine.DefaultEngine, benchWorkers)
	ops := make([]opResult, 0, len(cfgs))

	alloc0, cpu0 := totalAlloc(), cpuSeconds()
	t0 := time.Now()
	root := tr.start("iteration", 0)
	for _, cfg := range cfgs {
		ops = append(ops, runOp(cfg, w.fullExports, tr, root))
	}
	tr.end(root)
	it.wallS = time.Since(t0).Seconds()
	it.cpuS = cpuSeconds() - cpu0
	it.allocB = totalAlloc() - alloc0

	guardErr := w.guard(guardInput{ops: ops, cache: cache})
	for _, op := range ops {
		it.quanta += op.quanta()
		it.bytes += op.exports.Len()
		it.barriers += op.barriers
		for _, rc := range rollupCounters {
			it.counts[rc.metric] += float64(op.counter(rc.subsystem, rc.name))
		}
		it.digests = append(it.digests, digest(op.metrics, op.exports.Bytes()))
		err := op.err
		if err == nil {
			err = guardErr
		}
		it.errs = append(it.errs, err)
	}
	return it
}

// timedLoop runs iterations until the budget is spent, and at least
// minIters of them. Iteration seeds continue from index first.
func timedLoop(w workloadDef, seed int64, first int, seconds float64, minIters int, cache *cacheCounts, tr *tracer) []iteration {
	var its []iteration
	start := time.Now()
	for k := first; len(its) < minIters || time.Since(start).Seconds() < seconds; k++ {
		it := runIteration(w, seed, k, cache, tr)
		fmt.Printf("iteration %d: seed=%d wall_s=%.4f cpu_s=%.4f quanta=%d\n", k, it.seed, it.wallS, it.cpuS, it.quanta)
		its = append(its, it)
	}
	return its
}

// checkAgainstReference re-runs every iteration's fleets on the reference
// interpreter with one worker each, and marks each op whose digest
// differs. Two reference fleets run at a time, each on its own worker.
func checkAgainstReference(w workloadDef, its []iteration) {
	type job struct{ it, op int }
	var jobs []job
	for i := range its {
		for j := range its[i].digests {
			jobs = append(jobs, job{i, j})
		}
	}
	refs := make([]string, len(jobs))
	refErrs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, benchWorkers)
	for n, jb := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(n int, jb job) {
			defer wg.Done()
			defer func() { <-sem }()
			cfg := withRun(w.configs(its[jb.it].seed), machine.EngineInterp, 1)[jb.op]
			op := runOp(cfg, w.fullExports, nil, 0)
			refs[n], refErrs[n] = digest(op.metrics, op.exports.Bytes()), op.err
		}(n, jb)
	}
	wg.Wait()
	for n, jb := range jobs {
		it := &its[jb.it]
		var err error
		switch {
		case refErrs[n] != nil:
			err = fmt.Errorf("reference run: %w", refErrs[n])
		case refs[n] != it.digests[jb.op]:
			err = fmt.Errorf("output digest %.12s differs from the interp/1-worker reference %.12s", it.digests[jb.op], refs[n])
		}
		if err != nil && it.errs[jb.op] == nil {
			it.errs[jb.op] = err
		}
	}
}
