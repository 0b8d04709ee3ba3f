package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/datacenter"
	"repro/internal/fleet"
	"repro/internal/machine"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program
// together: the same workloads, and the same metrics with the same units,
// directions and bounds, every name well formed.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q, program has %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: malformed name %q", kind, m.Name)
			}
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: file has %s (%s, %s), program %s (%s, %s)", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != w.bound) {
				t.Errorf("%s %s: bound in file does not match the program's %v", kind, m.Name, w.bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestEmitWritesEveryMetricWithUnit checks the result line: every
// declared metric appears with its unit, and a missing one is an error.
func TestEmitWritesEveryMetricWithUnit(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		values := map[string]float64{}
		for i, s := range specs {
			values[s.name] = float64(i) + 0.5
		}
		var buf bytes.Buffer
		if err := emit(&buf, specs, values, 3, 1); err != nil {
			t.Fatal(err)
		}
		var res result
		if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Attempted != 3 || res.Failed != 1 {
			t.Errorf("header = %+v", res)
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(specs))
		}
		for i, s := range specs {
			if got := res.Metrics[s.name]; got.Unit != s.unit || got.Value != float64(i)+0.5 {
				t.Errorf("%s emitted as %+v", s.name, got)
			}
		}
		delete(values, specs[0].name)
		if err := emit(&bytes.Buffer{}, specs, values, 1, 0); err == nil {
			t.Errorf("emit accepted a result without %s", specs[0].name)
		}
	}
}

// TestDigestRejectsPerturbedExport runs a tiny fleet on both engines: the
// reference digest must match, and flipping one byte of the exports or
// one metric must not.
func TestDigestRejectsPerturbedExport(t *testing.T) {
	mix, _ := datacenter.MixByName("WL1")
	cfg := fleet.Config{
		Servers: 2, Webservice: "web-search", Mix: mix, System: fleet.SystemNone,
		Policy: fleet.RoundRobin{}, Seed: 3,
		SoloSeconds: 0.05, SettleSeconds: 0.05, MeasureSeconds: 0.05,
	}
	fast := withRun([]fleet.Config{cfg}, machine.DefaultEngine, 2)[0]
	ref := withRun([]fleet.Config{cfg}, machine.EngineInterp, 1)[0]
	a, b := runOp(fast, false, nil, 0), runOp(ref, false, nil, 0)
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	da := digest(a.metrics, a.exports.Bytes())
	if db := digest(b.metrics, b.exports.Bytes()); da != db {
		t.Fatalf("superblock digest %s differs from interp reference %s", da, db)
	}
	exp := append([]byte(nil), a.exports.Bytes()...)
	exp[len(exp)/2] ^= 1
	if digest(a.metrics, exp) == da {
		t.Error("digest accepted a perturbed export")
	}
	m := a.metrics
	m.QoSViolations++
	if digest(m, a.exports.Bytes()) == da {
		t.Error("digest accepted perturbed metrics")
	}
}

// TestSelfTimes checks span self time on a hand-built tree: overlapping
// children count once, and a child running past its parent's end is cut
// at it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 6, Name: "lone", Start: 5, End: 7},
	}
	want := map[spanID]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 2}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %d, want %d", id, got[id], w)
		}
	}
	stats := spanStats(append(spans, span{ID: 7, Name: "a", Start: 200, End: 210}))
	if stats[1].Name != "a" || stats[1].Count != 2 || math.Abs(stats[1].SelfMS-35e-6) > 1e-12 {
		t.Errorf("stats for a = %+v", stats[1])
	}
}

// TestTracerParentSums checks the per-parent sums the traced metrics use.
func TestTracerParentSums(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "iteration", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "fleet.run", Start: 0, End: 4e6},
		{ID: 3, Parent: 1, Name: "fleet.run", Start: 4e6, End: 6e6},
		{ID: 4, Name: "iteration", Start: 10e6, End: 20e6},
		{ID: 5, Parent: 4, Name: "fleet.run", Start: 10e6, End: 11e6},
		{ID: 6, Name: "fleet.run", Start: 30e6, End: 31e6},
	}}
	if got := tr.sumByParentMS("iteration", "fleet.run"); len(got) != 2 || got[0] != 6 || got[1] != 1 {
		t.Errorf("sums = %v, want [6 1]", got)
	}
	if got := tr.childDurationsMS("iteration", "fleet.run"); len(got) != 3 {
		t.Errorf("child durations = %v, want 3 of them", got)
	}
	var off *tracer
	if id := off.start("x", 0); id != 0 {
		t.Errorf("disabled tracer returned span %d", id)
	}
	off.end(0)
}

// TestParseCPUProfile decodes a real runtime/pprof profile of a busy loop.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if prof.total() == 0 {
		t.Fatal("no samples in a 300 ms busy loop")
	}
	if s := prof.share(under("repro/fleetbench.spin")); s <= 0 || s > 1 {
		t.Errorf("spin share = %v", s)
	}
	if s := prof.share(leafIn("repro/internal/cache")); s != 0 {
		t.Errorf("cache share of a busy loop = %v", s)
	}
}

var sink uint64

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e5; i++ {
			sink = sink*31 + uint64(i)
		}
	}
}

// TestGuards checks each guard rejects a run that skips its layer.
func TestGuards(t *testing.T) {
	one := []opResult{{cfg: sweepConfigs(1)[0]}}
	if err := sweepGuard(guardInput{ops: one}); err == nil {
		t.Error("sweep guard accepted a single fleet")
	}
	var all []opResult
	for _, cfg := range sweepConfigs(1) {
		all = append(all, opResult{cfg: cfg})
	}
	if err := sweepGuard(guardInput{ops: all}); err != nil {
		t.Errorf("sweep guard rejected the sweep: %v", err)
	}
	llcHeavy := &cacheCounts{}
	llcHeavy.L2.Accesses, llcHeavy.LLC.Accesses = 10, 10
	if err := computeGatedGuard(guardInput{cache: llcHeavy}); err == nil {
		t.Error("compute-gated guard accepted LLC walks equal to L2 walks")
	}
	if err := diurnalControlGuard(guardInput{ops: []opResult{{metrics: fleet.Metrics{Migrations: 1, AlertsFired: 1}}}}); err == nil {
		t.Error("diurnal-control guard accepted a run with no PC3D compile")
	}
}

func TestIterSeedsDistinctAndPositive(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{1, 2, 42} {
		for k := 0; k < 50; k++ {
			s := iterSeed(seed, k)
			if s <= 0 || seen[s] {
				t.Fatalf("iterSeed(%d, %d) = %d repeats or is not positive", seed, k, s)
			}
			seen[s] = true
		}
	}
}

// TestRollupCountersExist runs a short diurnal-control fleet and checks
// that every counter the traced run reads is one the fleet registers:
// CounterValue reads a misspelt name as 0, which would pass unnoticed.
func TestRollupCountersExist(t *testing.T) {
	cfg := withRun(diurnalControlConfigs(3), machine.DefaultEngine, 2)[0]
	cfg.SettleSeconds, cfg.MeasureSeconds = 0.5, 0.25
	op := runOp(cfg, true, nil, 0)
	if op.err != nil {
		t.Fatal(op.err)
	}
	var prom bytes.Buffer
	if err := op.tel.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, rc := range rollupCounters {
		if name := "protean_" + rc.subsystem + "_" + rc.name; !bytes.Contains(prom.Bytes(), []byte("\n"+name+" ")) {
			t.Errorf("%s: fleet registers no counter %s", rc.metric, name)
		}
	}
}

// TestReferenceGateMarksMismatch runs the correctness gate on a tiny
// two-fleet workload: untouched iterations pass, and an iteration whose
// recorded digest was perturbed fails on that fleet alone.
func TestReferenceGateMarksMismatch(t *testing.T) {
	mix, _ := datacenter.MixByName("WL2")
	tiny := workloadDef{
		name: "tiny",
		configs: func(seed int64) []fleet.Config {
			var cfgs []fleet.Config
			for _, pol := range fleet.Policies()[:2] {
				cfgs = append(cfgs, fleet.Config{
					Servers: 2, Webservice: "web-search", Mix: mix, System: fleet.SystemNone,
					Policy: pol, Seed: seed,
					SoloSeconds: 0.05, SettleSeconds: 0.05, MeasureSeconds: 0.05,
				})
			}
			return cfgs
		},
		guard: func(guardInput) error { return nil },
	}
	its := []iteration{runIteration(tiny, 5, 0, nil, nil), runIteration(tiny, 5, 1, nil, nil)}
	its[1].digests[1] = digest(fleet.Metrics{}, nil)
	checkAgainstReference(tiny, its)
	for i, it := range its {
		for j, err := range it.errs {
			if bad := i == 1 && j == 1; bad != (err != nil) {
				t.Errorf("iteration %d fleet %d: err = %v", i, j, err)
			}
		}
	}
}
