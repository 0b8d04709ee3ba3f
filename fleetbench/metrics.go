package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricSpec declares one reported metric. BENCHMARK.json lists the same
// names and units; bench_test.go holds the two together.
type metricSpec struct {
	name, unit, better string
	// bound is the end-to-end regression bound, as a share of the
	// baseline median (0 for per-layer metrics).
	bound float64
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"fleet_quanta_per_sec", "quanta/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"max_rss_mb", "MiB", "lower", 0.25},
	{"alloc_mb", "MiB", "lower", 0.15},
}

var perLayer = []metricSpec{
	{"workload.build_ms", "ms", "lower", 0},
	{"pcc.compile_ms", "ms", "lower", 0},
	{"pcc.binaries", "count", "lower", 0},
	{"pcc.text_words", "count", "lower", 0},
	{"machine.solo_ms", "ms", "lower", 0},
	{"machine.insts_per_s", "insts/s", "higher", 0},
	{"machine.interp_insts_per_s", "insts/s", "higher", 0},
	{"machine.engine_speedup", "ratio", "higher", 0},
	{"machine_insts_per_sec", "insts/s", "higher", 0},
	{"cache.loads", "count", "lower", 0},
	{"cache.l1_hit_ratio", "ratio", "higher", 0},
	{"cache.l2_walks_per_load", "ratio", "lower", 0},
	{"cache.llc_walks_per_load", "ratio", "lower", 0},
	{"cache.llc_hit_ratio", "ratio", "higher", 0},
	{"cache.cpu_share", "share", "lower", 0},
	{"machine.dispatch_cpu_share", "share", "lower", 0},
	{"fleet.calibrate_cpu_share", "share", "lower", 0},
	{"fleet.simulate_cpu_share", "share", "lower", 0},
	{"fleet.barrier_cpu_share", "share", "lower", 0},
	{"pc3d.cpu_share", "share", "lower", 0},
	{"telemetry.merge_cpu_share", "share", "lower", 0},
	{"fleet.new_ms", "ms", "lower", 0},
	{"fleet.run_ms", "ms", "lower", 0},
	{"fleet.quanta", "count", "higher", 0},
	{"fleet.barriers", "count", "lower", 0},
	{"telemetry.export_ms", "ms", "lower", 0},
	{"fleet.export_ms", "ms", "lower", 0},
	{"export_bytes", "bytes", "lower", 0},
	{"contend.migrations", "count", "higher", 0},
	{"contend.moves_failed", "count", "lower", 0},
	{"contend.move_retries", "count", "lower", 0},
	{"contend.breaker_trips", "count", "lower", 0},
	{"contend.land_ratio", "ratio", "higher", 0},
	{"core.compiles", "count", "higher", 0},
	{"core.compile_ok_ratio", "ratio", "higher", 0},
	{"pc3d.variant_evals", "count", "higher", 0},
	{"pc3d.nap_probes", "count", "lower", 0},
	{"supervise.restarts", "count", "higher", 0},
	{"slo.alerts_fired", "count", "lower", 0},
	{"slo.postmortems", "count", "lower", 0},
	{"go.gc_cpu_fraction", "share", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit writes the result line: every metric of specs, each with its unit.
// A spec without a value is a bug in the benchmark, not a measurement.
func emit(w io.Writer, specs []metricSpec, values map[string]float64, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
