package main

import (
	"fmt"

	"repro/internal/contend"
	"repro/internal/datacenter"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/loadgen"
)

// workloadDef is one benchmark input shape: the fleets one iteration runs,
// and the property the shape exists to exercise.
type workloadDef struct {
	name string
	// configs returns the fleets of one iteration, in run order. Engine
	// and Workers are left for the caller to fill.
	configs func(seed int64) []fleet.Config
	// fullExports writes every fleet export (contend, audit, alert log,
	// SLO status, tsdb, postmortems), not only the telemetry rollup and
	// the fleet profile.
	fullExports bool
	// soloCache makes every run measure the solo cache counts of the
	// workload's apps, which its guard reads.
	soloCache bool
	// guard checks the property the workload exists for, on the fleets
	// of one iteration.
	guard func(in guardInput) error
}

// guardInput is what a guard may read: the iteration's runs, and the solo
// cache counts when the workload asks for them.
type guardInput struct {
	ops   []opResult
	cache *cacheCounts
}

var workloads = []workloadDef{
	{name: "sweep", configs: sweepConfigs, guard: sweepGuard},
	{name: "compute-gated", configs: computeGatedConfigs, soloCache: true, guard: computeGatedGuard},
	{name: "diurnal-control", configs: diurnalControlConfigs, fullExports: true, guard: diurnalControlGuard},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sweepConfigs is a sweep of short, saturated fleets with no mitigation:
// every Table III mix under every placement policy. Each fleet calibrates
// its apps again, so the same app set is calibrated once per policy.
func sweepConfigs(seed int64) []fleet.Config {
	var out []fleet.Config
	for _, mix := range datacenter.TableIII() {
		for _, pol := range fleet.Policies() {
			out = append(out, fleet.Config{
				Servers:        4,
				Webservice:     "web-search",
				Mix:            mix,
				System:         fleet.SystemNone,
				Policy:         pol,
				Seed:           seed,
				SoloSeconds:    0.25,
				SettleSeconds:  0.25,
				MeasureSeconds: 0.25,
			})
		}
	}
	return out
}

// computeMix holds the L2-resident compute apps: most of their loads stop
// at L2, so cache replay rarely walks to the LLC.
var computeMix = datacenter.Mix{Name: "compute", Apps: []string{"gobmk", "povray", "gcc", "bzip2"}}

// computeGatedConfigs is one fleet of compute-bound batch apps beside a
// web-search load gated by a low diurnal trace, so the webservice mostly
// naps and batch dispatch dominates.
func computeGatedConfigs(seed int64) []fleet.Config {
	return []fleet.Config{{
		Servers:            6,
		Webservice:         "web-search",
		Mix:                computeMix,
		System:             fleet.SystemNone,
		Policy:             fleet.RoundRobin{},
		Seed:               seed,
		SoloSeconds:        0.25,
		SettleSeconds:      1,
		MeasureSeconds:     1,
		Trace:              loadgen.Diurnal{Period: 60, Low: 0.1, High: 0.3},
		PhaseSpreadSeconds: 60,
	}}
}

// controlMix pairs LLC aggressors, so detection flags servers and PC3D
// searches for variants.
var controlMix = datacenter.Mix{Name: "control", Apps: []string{"er-naive", "milc", "libquantum", "sledge"}}

// diurnalControlConfigs is one phase-spread diurnal fleet with every
// control layer on: PC3D on each batch server, live migration with short
// decision epochs, the SLO engine, and chaos (server and runtime crashes,
// failed landings, stale detector samples). Two servers stay batch-free
// so the planner has somewhere to land. PC3D needs about 3 s of simulated
// time from a batch app's arrival to its first variant compile, and a
// migration restarts that clock on the destination, so an aggressor the
// planner keeps moving between the spares never compiles; a crashed
// server's instance is re-placed onto a spare, leaving the planner
// nowhere to land. With 8 servers, 6 instances and a 5 s horizon, three
// seeds in 40 ended with a single compile and some with none. Eight
// instances keep more contended servers queued behind the one-move-per-
// epoch budget (they compile while they wait), the 7 s horizon gives both
// layers room, and the 5 % crash rate takes fewer spares. Over 80 seeds
// the fewest events in a run were 2 migrations, 2 firing alerts and 4
// compiles.
func diurnalControlConfigs(seed int64) []fleet.Config {
	return []fleet.Config{{
		Servers:        10,
		Instances:      8,
		Webservice:     "web-search",
		Mix:            controlMix,
		System:         fleet.SystemPC3D,
		Target:         0.99,
		Policy:         fleet.RoundRobin{},
		Seed:           seed,
		MaxSites:       2,
		SoloSeconds:    0.25,
		SettleSeconds:  6.5,
		MeasureSeconds: 0.5,
		Trace: loadgen.Offset{
			Trace: loadgen.Diurnal{Period: 60, Low: 0.6, High: 0.95},
			By:    24,
		},
		PhaseSpreadSeconds: 60,
		Chaos: &faults.Chaos{
			ServerCrashProb:         0.05,
			RestartDelaySeconds:     0.25,
			RuntimeCrashMTTFSeconds: 20,
			MoveLandFailProb:        0.3,
			SampleStaleProb:         0.05,
		},
		Migration: &fleet.MigrationConfig{
			WindowSeconds:   0.25,
			BlackoutSeconds: 0.1,
			BudgetPerEpoch:  1,
			Detector: contend.Config{
				Window: 3, MinSamples: 2, Cooldown: 2,
				Quantile: 0.5, Enter: 1.15, Exit: 1.05,
			},
		},
		SLO: &fleet.SLOConfig{BoostBudget: 1},
	}}
}

// sweepGuard fails unless the fleets of one iteration calibrate the same
// app set at least twice: the repeated calibration is the cost this
// workload exists to expose.
func sweepGuard(in guardInput) error {
	sets := map[string]int{}
	for _, op := range in.ops {
		sets[calibratedSet(op.cfg)]++
	}
	if len(sets) == 0 {
		return fmt.Errorf("sweep: no fleet ran")
	}
	for set, n := range sets {
		if n < 2 {
			return fmt.Errorf("sweep: app set %s calibrated %d time(s), want at least 2", set, n)
		}
	}
	return nil
}

// computeGatedGuard fails unless the solo cache counts of the workload's
// apps show more L2 walks than LLC walks: most loads must stop at L2.
func computeGatedGuard(in guardInput) error {
	c := in.cache
	if c == nil {
		return fmt.Errorf("compute-gated: no solo cache counts")
	}
	if c.L2.Accesses <= c.LLC.Accesses {
		return fmt.Errorf("compute-gated: %d L2 walks not above %d LLC walks", c.L2.Accesses, c.LLC.Accesses)
	}
	return nil
}

// diurnalControlGuard fails unless the run migrated, fired an alert and
// compiled a PC3D variant, and the conservation auditor stayed clean.
func diurnalControlGuard(in guardInput) error {
	if len(in.ops) != 1 {
		return fmt.Errorf("diurnal-control: %d fleets, want 1", len(in.ops))
	}
	run := in.ops[0]
	m := run.metrics
	switch {
	case m.Migrations < 1:
		return fmt.Errorf("diurnal-control: no migration landed")
	case m.AlertsFired < 1:
		return fmt.Errorf("diurnal-control: no SLO alert fired")
	case run.counter("core", "compiles_total") < 1:
		return fmt.Errorf("diurnal-control: no PC3D variant compiled")
	case m.AuditViolations != 0:
		return fmt.Errorf("diurnal-control: %d conservation audit violation(s)", m.AuditViolations)
	}
	return nil
}
