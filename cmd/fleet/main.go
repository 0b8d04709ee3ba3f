// Command fleet runs the warehouse-scale fleet simulator: N simulated
// servers, each co-locating a latency-sensitive webservice with a batch
// instance drawn from a datacenter mix under a chosen mitigation system
// and placement policy, driven concurrently and aggregated into cluster
// metrics.
//
// Usage:
//
//	fleet -servers 64 -mix WL1 -webservice web-search -policy least-loaded
//	fleet -servers 16 -mix WL2 -system reqos -diurnal 20 -load-low 0.3 -load-high 0.9
//	fleet -servers 8 -chaos -crash-rate 0.3 -runtime-mttf 5 -qos-dropout 0.2
//	fleet -servers 8 -metrics metrics.prom -trace trace.jsonl
//	fleet -servers 12 -system none -migrate -contend-window 0.5 -contend-q 0.75 -contend-out contend.json
//	fleet -servers 12 -migrate -move-land-fail 0.4 -sample-stale 0.05 -breaker-k 3 -audit-out audit.json
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/contend"
	"repro/internal/datacenter"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/machine"
)

func main() {
	var (
		servers    = flag.Int("servers", 16, "fleet size")
		instances  = flag.Int("instances", 0, "batch instances to place (0 = one per server)")
		webservice = flag.String("webservice", "web-search", "latency-sensitive app on every server")
		mixName    = flag.String("mix", "WL1", "batch mix: WL1|WL2|WL3")
		policyName = flag.String("policy", "least-loaded", "placement policy: round-robin|least-loaded|contention-aware")
		systemName = flag.String("system", "pc3d", "mitigation system: none|pc3d|reqos")
		target     = flag.Float64("target", 0.95, "QoS target")
		seed       = flag.Int64("seed", 1, "fleet seed (fixed seed = bit-identical metrics at any -workers)")
		engine     = flag.String("engine", machine.DefaultEngine, "execution engine: superblock|interp (bit-identical)")
		workers    = flag.Int("workers", 0, "max concurrent server simulations (0 = NumCPU)")
		solo       = flag.Float64("solo", 1, "solo calibration seconds per app")
		settle     = flag.Float64("settle", 5.5, "settle seconds before measurement")
		measure    = flag.Float64("measure", 1, "steady-state measurement seconds")
		diurnal    = flag.Float64("diurnal", 0, "diurnal load period in seconds (0 = saturated webservices)")
		loadLow    = flag.Float64("load-low", 0.25, "diurnal trough load fraction")
		loadHigh   = flag.Float64("load-high", 0.95, "diurnal peak load fraction")
		spread     = flag.Float64("phase-spread", 0, "total diurnal phase offset fanned across the fleet, seconds")
		maxSites   = flag.Int("max-sites", 0, "cap PC3D's search (0 = full search)")

		chaos       = flag.Bool("chaos", false, "enable fault injection (a moderate preset unless rates are given)")
		faultSeed   = flag.Int64("fault-seed", 0, "fault-schedule seed (0 = the fleet seed)")
		crashRate   = flag.Float64("crash-rate", 0, "per-server whole-machine crash probability")
		restart     = flag.Float64("restart-delay", 0.5, "scheduler re-placement delay after a server crash, seconds")
		compileFail = flag.Float64("compile-fail", 0, "per-compile-job failure probability in the protean runtime")
		runtimeMTTF = flag.Float64("runtime-mttf", 0, "protean runtime mean time to failure, seconds (0 = never)")
		qosDropout  = flag.Float64("qos-dropout", 0, "probability each QoS sensor window goes dark")
		dropoutSecs = flag.Float64("dropout-seconds", 0.2, "QoS sensor dropout window length, seconds")

		detachFail    = flag.Float64("move-detach-fail", 0, "per-move probability a migration fails before the source detaches")
		landFail      = flag.Float64("move-land-fail", 0, "per-attempt probability a migration landing fails")
		moveStall     = flag.Float64("move-stall-max", 0, "max extra blackout stall per move, seconds (uniform)")
		sampleCorrupt = flag.Float64("sample-corrupt", 0, "per-(server,epoch) probability a detector sample arrives corrupted")
		sampleStale   = flag.Float64("sample-stale", 0, "per-(server,epoch) probability a detector sample replays stale")

		migrate       = flag.Bool("migrate", false, "enable contention-detection → live batch migration")
		contendWindow = flag.Float64("contend-window", 0.5, "migration decision-epoch length, seconds")
		contendQ      = flag.Float64("contend-q", 0.75, "detector quantile for the contention threshold")
		migrateBudget = flag.Int("migrate-budget", 1, "max migrations per decision epoch")
		blackout      = flag.Float64("blackout", 0.25, "migration blackout (modeled cost), seconds")
		landAttempts  = flag.Int("migrate-retries", 0, "max landing attempts per move, planned destination included (0 = default 3)")
		retryBackoff  = flag.Float64("retry-backoff", 0, "extra blackout before each retry landing, seconds (0 = blackout/2)")
		rollbackPen   = flag.Float64("rollback-penalty", 0, "extra blackout charged when a move rolls back, seconds (0 = blackout)")
		breakerK      = flag.Int("breaker-k", 0, "consecutive failed moves that trip the migration breaker (0 = default 3)")
		breakerCool   = flag.Int("breaker-cooldown", 0, "epochs the tripped breaker stays open before a half-open probe (0 = default 8)")

		sloOn       = flag.Bool("slo", false, "enable the SLO engine: multi-window burn-rate alerts over a deterministic time-series store")
		sloWindow   = flag.Float64("slo-window", 0, "SLO evaluation-epoch length, seconds (0 = 0.5, or the -contend-window with -migrate)")
		sloBoost    = flag.Int("slo-boost", 0, "extra per-epoch migration budget while the QoS burn alert fires (needs -migrate)")
		postmortDir = flag.String("postmortem-dir", "", "write each frozen postmortem bundle as JSON into this directory")

		scrapeevery = flag.Int("scrape-interval", 0, "live-publisher snapshot deposit interval in scheduler quanta for -serve (0 = default 64)")
	)
	// The export table supplies every output-file flag and the -serve
	// route list.
	outPaths := make(map[string]*string)
	var routes []string
	for _, e := range fleet.Exports {
		if e.Name != "" {
			outPaths[e.Name] = flag.String(e.Name, "", e.Usage)
		}
		if e.Route != "" {
			routes = append(routes, e.Route)
		}
	}
	serveAddr := flag.String("serve", "", "serve "+strings.Join(routes, ", ")+" (plus /debug/pprof) on this address during and after the run, e.g. :8080")
	flag.Parse()

	mix, ok := datacenter.MixByName(*mixName)
	if !ok {
		fail("unknown mix %q (try WL1, WL2, WL3)", *mixName)
	}
	policy, err := fleet.PolicyByName(*policyName)
	if err != nil {
		failErr(err)
	}
	system, err := fleet.SystemByName(*systemName)
	if err != nil {
		failErr(err)
	}
	var trace loadgen.Trace
	if *diurnal > 0 {
		trace = loadgen.Diurnal{Period: *diurnal, Low: *loadLow, High: *loadHigh}
	}

	var ch *faults.Chaos
	migrationFaults := *detachFail > 0 || *landFail > 0 || *moveStall > 0 ||
		*sampleCorrupt > 0 || *sampleStale > 0
	if *chaos || *crashRate > 0 || *compileFail > 0 || *runtimeMTTF > 0 || *qosDropout > 0 || migrationFaults {
		ch = &faults.Chaos{
			Seed:                    *faultSeed,
			ServerCrashProb:         *crashRate,
			RestartDelaySeconds:     *restart,
			CompileFailProb:         *compileFail,
			RuntimeCrashMTTFSeconds: *runtimeMTTF,
			QoSDropoutProb:          *qosDropout,
			QoSDropoutSeconds:       *dropoutSecs,
			MoveDetachFailProb:      *detachFail,
			MoveLandFailProb:        *landFail,
			MoveStallMaxSeconds:     *moveStall,
			SampleCorruptProb:       *sampleCorrupt,
			SampleStaleProb:         *sampleStale,
		}
		if *chaos && *crashRate == 0 && *compileFail == 0 && *runtimeMTTF == 0 && *qosDropout == 0 && !migrationFaults {
			// Bare -chaos: a moderate every-fault-class preset.
			ch.ServerCrashProb = 0.3
			ch.CompileFailProb = 0.15
			ch.RuntimeCrashMTTFSeconds = 10
			ch.QoSDropoutProb = 0.15
		}
	}

	var mg *fleet.MigrationConfig
	if *migrate {
		mg = &fleet.MigrationConfig{
			WindowSeconds:          *contendWindow,
			BlackoutSeconds:        *blackout,
			BudgetPerEpoch:         *migrateBudget,
			MaxLandAttempts:        *landAttempts,
			RetryBackoffSeconds:    *retryBackoff,
			RollbackPenaltySeconds: *rollbackPen,
			Detector:               contend.Config{Quantile: *contendQ},
			Breaker: contend.BreakerConfig{
				FailureThreshold: *breakerK,
				CooldownEpochs:   *breakerCool,
			},
		}
	}

	var sc *fleet.SLOConfig
	if *sloOn || *outPaths["alerts-out"] != "" || *outPaths["tsdb-out"] != "" || *postmortDir != "" {
		sc = &fleet.SLOConfig{
			WindowSeconds: *sloWindow,
			BoostBudget:   *sloBoost,
		}
	}

	f, err := fleet.New(fleet.Config{
		Servers:              *servers,
		Instances:            *instances,
		Webservice:           *webservice,
		Mix:                  mix,
		System:               system,
		Target:               *target,
		Policy:               policy,
		Seed:                 *seed,
		Engine:               *engine,
		Workers:              *workers,
		SoloSeconds:          *solo,
		SettleSeconds:        *settle,
		MeasureSeconds:       *measure,
		Trace:                trace,
		PhaseSpreadSeconds:   *spread,
		MaxSites:             *maxSites,
		Chaos:                ch,
		Migration:            mg,
		SLO:                  sc,
		ScrapeIntervalQuanta: *scrapeevery,
	})
	if err != nil {
		failErr(err)
	}

	cfg := f.Config()
	fmt.Printf("fleet: %d servers, %d %s instances, webservice %s, system %s, policy %s, %d workers\n",
		cfg.Servers, cfg.Instances, mix.Name, cfg.Webservice, cfg.System, cfg.Policy.Name(), cfg.Workers)
	if *serveAddr != "" {
		// The handler must exist before Run so servers publish live
		// snapshots; scraping works throughout the run and afterwards.
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			failErr(err)
		}
		fmt.Printf("serving %s on %s\n", strings.Join(routes, " "), ln.Addr())
		go func() {
			if err := http.Serve(ln, f.Handler()); err != nil {
				fail("serve: %v", err)
			}
		}()
	}
	start := time.Now()
	m, err := f.Run()
	if err != nil {
		failErr(err)
	}

	fmt.Printf("\n%-22s %8s %8s %8s %8s\n", "", "mean", "p50", "p95", "min")
	fmt.Printf("%-22s %8.3f %8.3f %8.3f %8.3f\n", "batch utilization", m.Utilization.Mean, m.Utilization.P50, m.Utilization.P95, m.Utilization.Min)
	fmt.Printf("%-22s %8.3f %8.3f %8.3f %8.3f\n", "webservice QoS", m.QoS.Mean, m.QoS.P50, m.QoS.P95, m.QoS.Min)
	fmt.Printf("\nQoS violations:          %d/%d servers below %.0f%% target\n", m.QoSViolations, m.Servers, cfg.Target*100)
	fmt.Printf("batch throughput:        %.2f dedicated-server units\n", m.BatchUnits)
	fmt.Printf("extra servers avoided:   %d (no-co-location equivalent)\n", m.ExtraServersEquivalent)
	fmt.Printf("energy efficiency:       %.2fx vs no-co-location fleet\n", m.EnergyEfficiencyRatio)
	if ch != nil {
		fmt.Printf("\nfault injection:\n")
		fmt.Printf("  availability:          %.3f mean up-fraction of the measurement window\n", m.Availability)
		fmt.Printf("  server crashes:        %d (%d instances re-placed, %d unplaced)\n",
			m.Crashes, m.Replacements, m.UnplacedInstances)
		fmt.Printf("  runtime crashes:       %d (%d supervised restarts)\n", m.RuntimeCrashes, m.RuntimeRestarts)
		fmt.Printf("  compile failures:      %d\n", m.CompileFailures)
		fmt.Printf("  sensor dropouts:       %d\n", m.SensorDropouts)
		fmt.Printf("  degraded survivors:    QoS %.3f/%.3f/%.3f util %.3f/%.3f/%.3f (mean/p50/min)\n",
			m.DegradedQoS.Mean, m.DegradedQoS.P50, m.DegradedQoS.Min,
			m.DegradedUtilization.Mean, m.DegradedUtilization.P50, m.DegradedUtilization.Min)
	}

	if mg != nil {
		fmt.Printf("\nlive migration:\n")
		fmt.Printf("  migrations:            %d (%d batch quanta lost to blackouts)\n", m.Migrations, m.MigrationQuantaLost)
		fmt.Printf("  contended servers:     %d at the last decision epoch\n", m.ContendedServers)
		fmt.Printf("  QoS tail:              p95 %.3f  p99 %.3f (levels 95%%/99%% of servers meet)\n", m.QoS.P05, m.QoS.P01)
		fmt.Printf("  failed moves:          %d (%d rollbacks, %d retries)\n", m.MovesFailed, m.MoveRollbacks, m.MoveRetries)
		fmt.Printf("  breaker trips:         %d\n", m.BreakerTrips)
		fmt.Printf("  sensor faults:         %d corrupt, %d stale detector samples\n", m.CorruptSamples, m.StaleSamples)
		fmt.Printf("  audit violations:      %d (conservation, occupancy, monotonicity, accounting)\n", m.AuditViolations)
	}

	if sc != nil {
		fmt.Printf("\nSLO engine:\n")
		fmt.Printf("  alerts:                %d fired, %d resolved\n", m.AlertsFired, m.AlertsResolved)
		fmt.Printf("  postmortems:           %d bundles frozen\n", m.Postmortems)
	}

	fmt.Printf("\nper-app mean utilization:\n")
	for _, app := range mix.Apps {
		if u, ok := m.PerApp[app]; ok {
			fmt.Printf("  %-20s %.3f\n", app, u)
		}
	}
	fmt.Printf("\n[%d servers simulated in %.1fs]\n", m.Servers, time.Since(start).Seconds())

	for _, e := range fleet.Exports {
		if e.Name == "" || *outPaths[e.Name] == "" {
			continue
		}
		if err := writeExport(*outPaths[e.Name], func(w io.Writer) error { return e.Write(f, w) }); err != nil {
			failErr(err)
		}
	}
	if *postmortDir != "" {
		if err := os.MkdirAll(*postmortDir, 0o755); err != nil {
			failErr(err)
		}
		for _, b := range f.Postmortems() {
			name := fmt.Sprintf("postmortem_%03d_%s.json", b.Seq, strings.ReplaceAll(b.Reason, ":", "_"))
			path := filepath.Join(*postmortDir, name)
			if err := os.WriteFile(path, []byte(b.JSON()), 0o644); err != nil {
				failErr(err)
			}
		}
		fmt.Printf("wrote %d postmortem bundles to %s\n", len(f.Postmortems()), *postmortDir)
	}
	if *serveAddr != "" {
		fmt.Println("run complete; still serving (ctrl-c to exit)")
		select {}
	}
}

// writeExport writes a telemetry export to path, with "-" meaning stdout.
func writeExport(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", args...)
	os.Exit(2)
}

// failErr prints an error that already carries the package prefix.
func failErr(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
