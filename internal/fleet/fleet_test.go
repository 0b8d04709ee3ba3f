package fleet

import (
	"reflect"
	"testing"

	"repro/internal/datacenter"
	"repro/internal/loadgen"
)

// testConfig is a deliberately small diurnal fleet: cheap enough for the
// race detector, rich enough to exercise calibration, contention-aware
// placement, phase-offset load gating and aggregation.
func testConfig(workers int) Config {
	return Config{
		Servers:            5,
		Instances:          3,
		Webservice:         "web-search",
		Mix:                datacenter.Mix{Name: "test", Apps: []string{"libquantum", "milc"}},
		System:             SystemNone,
		Policy:             ContentionAware{},
		Seed:               42,
		Workers:            workers,
		SoloSeconds:        0.5,
		SettleSeconds:      0.25,
		MeasureSeconds:     0.5,
		Trace:              loadgen.Diurnal{Period: 2, Low: 0.3, High: 0.9},
		PhaseSpreadSeconds: 1,
	}
}

// TestFleetDeterministicAcrossWorkerCounts is the core concurrency
// contract: a fixed seed must produce bit-identical cluster metrics no
// matter how many workers drive the simulations.
func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) Metrics {
		f, err := New(testConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial := run(1)
	concurrent := run(3)
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("metrics diverge across worker counts:\nserial:     %+v\nconcurrent: %+v", serial, concurrent)
	}
}

func TestFleetMetricsSanity(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Servers != 5 || m.Instances != 3 {
		t.Fatalf("sizes = %d servers / %d instances", m.Servers, m.Instances)
	}
	if len(m.PerServer) != 5 {
		t.Fatalf("want 5 per-server results, got %d", len(m.PerServer))
	}
	batch := 0
	for i, r := range m.PerServer {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if r.QoS <= 0 || r.QoS > 1.001 {
			t.Fatalf("server %d QoS = %v", i, r.QoS)
		}
		if r.App != "" {
			batch++
			if r.Utilization <= 0 {
				t.Fatalf("server %d (%s) utilization = %v", i, r.App, r.Utilization)
			}
		}
	}
	if batch != 3 {
		t.Fatalf("want 3 batch-hosting servers, got %d", batch)
	}
	if m.BatchUnits <= 0 || m.BatchUnits > 3 {
		t.Fatalf("BatchUnits = %v", m.BatchUnits)
	}
	if m.EnergyEfficiencyRatio <= 1 {
		// Consolidating batch work onto webservice machines must beat
		// powering dedicated batch servers under the linear power model.
		t.Fatalf("EnergyEfficiencyRatio = %v, want > 1", m.EnergyEfficiencyRatio)
	}
	if len(m.PerApp) != 2 {
		t.Fatalf("PerApp = %v, want both mix apps", m.PerApp)
	}
	// The diurnal gate keeps offered load well under capacity, so the
	// webservices should be serving nearly everything offered.
	if m.QoS.Min <= 0.5 {
		t.Fatalf("QoS.Min = %v, implausibly low for an ungated co-location at these loads", m.QoS.Min)
	}
}

// TestFleetPlacementRespectsPolicy checks the placement plumbing end to
// end: contention-aware must send the highest-pressure app to the server
// with the lowest phase-offset load.
func TestFleetPlacementRespectsPolicy(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	placement := f.Placement()
	if len(placement) != 3 {
		t.Fatalf("placement = %v", placement)
	}
	// Recompute the expected assignment from the published slots and
	// measured pressures.
	want := ContentionAware{}.Place(f.instances, f.slots)
	if !reflect.DeepEqual(placement, want) {
		t.Fatalf("placement %v does not match policy output %v", placement, want)
	}
}
