package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/pcc"
	"repro/internal/progbin"
	"repro/internal/workload"
)

// cacheCounts sums simulated cache events over solo runs.
type cacheCounts struct {
	Loads       uint64
	L1, L2, LLC cache.Stats
}

func (c *cacheCounts) add(o cacheCounts) {
	c.Loads += o.Loads
	c.L1 = addStats(c.L1, o.L1)
	c.L2 = addStats(c.L2, o.L2)
	c.LLC = addStats(c.LLC, o.LLC)
}

func addStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses: a.Accesses + b.Accesses, Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses,
		Evictions: a.Evictions + b.Evictions, NTBypassed: a.NTBypassed + b.NTBypassed, NTDemoted: a.NTDemoted + b.NTDemoted,
	}
}

// soloResult is one app's solo run.
type soloResult struct {
	counters machine.Counters
	cache    cacheCounts
	hostS    float64
}

// soloRun repeats the run fleet.Run calibrates each app with: a dedicated
// 4-core machine on the fleet seed, 0.5 s of warm-up, then SoloSeconds.
func soloRun(bin *progbin.Binary, seed int64, engine string, soloSeconds float64) (soloResult, error) {
	m := machine.New(machine.Config{Cores: 4, Seed: seed, Engine: engine})
	p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	if err != nil {
		return soloResult{}, fmt.Errorf("solo attach: %w", err)
	}
	t0 := time.Now()
	m.RunSeconds(0.5)
	m.RunSeconds(soloSeconds)
	res := soloResult{counters: p.Counters(), hostS: time.Since(t0).Seconds()}
	h := m.Hierarchy()
	res.cache = cacheCounts{Loads: res.counters.Loads, L1: h.L1(0).Stats(), L2: h.L2(0).Stats(), LLC: h.LLC().Stats()}
	return res, nil
}

// soloApps lists the apps the workload's first iteration calibrates, with
// that iteration's seed and solo window.
func soloApps(w workloadDef, seed int64) (apps []string, fleetSeed int64, soloSeconds float64) {
	cfgs := w.configs(iterSeed(seed, 0))
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		for _, a := range calibratedApps(cfg) {
			if !seen[a] {
				seen[a] = true
				apps = append(apps, a)
			}
		}
	}
	sort.Strings(apps)
	return apps, cfgs[0].Seed, cfgs[0].SoloSeconds
}

// soloSet is the solo runs of every app of a workload on one engine.
type soloSet struct {
	perApp map[string]soloResult
	cache  cacheCounts
	insts  uint64
	hostS  []float64 // per app, in app order
	totalS float64
}

func runSolos(apps []string, bins map[string]*progbin.Binary, seed int64, engine string, soloSeconds float64, tr *tracer) (soloSet, error) {
	set := soloSet{perApp: map[string]soloResult{}}
	for _, a := range apps {
		sp := tr.start("machine.solo", 0)
		r, err := soloRun(bins[a], seed, engine, soloSeconds)
		tr.end(sp)
		if err != nil {
			return set, fmt.Errorf("%s: %w", a, err)
		}
		set.perApp[a] = r
		set.cache.add(r.cache)
		set.insts += r.counters.Insts
		set.hostS = append(set.hostS, r.hostS)
		set.totalS += r.hostS
	}
	return set, nil
}

// compareEngines returns an error naming the first app whose counters or
// cache counts differ between the two engines' solo runs.
func compareEngines(apps []string, a, b soloSet) error {
	for _, app := range apps {
		x, y := a.perApp[app], b.perApp[app]
		if x.counters != y.counters || x.cache != y.cache {
			return fmt.Errorf("%s: superblock and interp solo runs disagree: %+v vs %+v", app, x.counters, y.counters)
		}
	}
	return nil
}

// machineInstsPerSec repeats BenchmarkMachineInstructions: libquantum on a
// 1-core machine under the default engine, RunSeconds(0.25) per step, for
// about budget of host time.
func machineInstsPerSec(budget time.Duration) (float64, error) {
	bin, err := workload.MustByName("libquantum").CompilePlain()
	if err != nil {
		return 0, err
	}
	m := machine.New(machine.Config{Cores: 1})
	p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	if err != nil {
		return 0, err
	}
	start := p.Counters().Insts
	t0 := time.Now()
	for n := 0; n < 4 || time.Since(t0) < budget; n++ {
		m.RunSeconds(0.25)
	}
	return float64(p.Counters().Insts-start) / time.Since(t0).Seconds(), nil
}

// setupResult is what one set-up pass built.
type setupResult struct {
	plain     map[string]*progbin.Binary
	binaries  int
	textWords int
}

// runSetup builds the IR module of every app the workload uses, compiles
// each (protean too where a fleet runs PC3D), and builds the first fleet.
func runSetup(w workloadDef, seed int64, tr *tracer) (setupResult, error) {
	res := setupResult{plain: map[string]*progbin.Binary{}}
	root := tr.start("setup", 0)
	defer tr.end(root)
	cfgs := withRun(w.configs(iterSeed(seed, 0)), machine.DefaultEngine, benchWorkers)
	apps, _, _ := soloApps(w, seed)
	pc3d := false
	for _, cfg := range cfgs {
		pc3d = pc3d || cfg.System == fleet.SystemPC3D
	}
	compile := func(app string, opts pcc.Options) (*progbin.Binary, error) {
		sp := tr.start("workload.build", root)
		mod := workload.MustByName(app).Module()
		tr.end(sp)
		sp = tr.start("pcc.compile", root)
		bin, err := pcc.Compile(mod, opts)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", app, err)
		}
		res.binaries++
		res.textWords += pcc.StatsOf(bin).CodeWords
		return bin, nil
	}
	for _, app := range apps {
		bin, err := compile(app, pcc.Options{})
		if err != nil {
			return res, err
		}
		res.plain[app] = bin
		if pc3d && app != cfgs[0].Webservice {
			if _, err = compile(app, pcc.Options{Protean: true}); err != nil {
				return res, err
			}
		}
	}
	sp := tr.start("fleet.new", root)
	_, err := fleet.New(cfgs[0])
	tr.end(sp)
	return res, err
}
