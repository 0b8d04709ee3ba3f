package tsdb

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestRingDropsOldest(t *testing.T) {
	d := New(Config{Capacity: 3})
	for e := 1; e <= 5; e++ {
		d.Observe("x", Point{Epoch: e, T: float64(e), V: float64(e * 10)})
	}
	pts := d.Range("x", 0, 99)
	if len(pts) != 3 || pts[0].Epoch != 3 || pts[2].Epoch != 5 {
		t.Fatalf("retained = %+v, want epochs 3..5", pts)
	}
	if last, ok := d.Last("x"); !ok || last.V != 50 {
		t.Errorf("Last = %+v, %v", last, ok)
	}
	if d.LastEpoch() != 5 {
		t.Errorf("LastEpoch = %d", d.LastEpoch())
	}
}

func TestSampleSumsAcrossRegistriesInOrder(t *testing.T) {
	mk := func(c uint64, g float64) *telemetry.Registry {
		r := telemetry.New(telemetry.Config{})
		r.Counter("fleet", "moves_total", "").Add(c)
		r.Gauge("fleet", "load", "").Set(g)
		h := r.Histogram("fleet", "qos", "", []float64{0.5, 0.9, 1})
		h.Observe(0.7)
		return r
	}
	d := New(Config{Quantiles: []float64{0.5}})
	d.Sample(1, 0.5, mk(3, 0.25), mk(4, 0.5))
	if v, ok := d.Delta("protean_fleet_moves_total", 1, 1); !ok || v != 7 {
		t.Errorf("counter sum = %v, %v (want 7)", v, ok)
	}
	if p, ok := d.Last("protean_fleet_load"); !ok || p.V != 0.75 {
		t.Errorf("gauge sum = %+v", p)
	}
	if _, ok := d.Last("protean_fleet_qos:p50"); !ok {
		t.Error("histogram quantile series missing")
	}
	names := d.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	// Empty histograms sample no quantile points.
	r := telemetry.New(telemetry.Config{})
	r.Histogram("fleet", "empty", "", []float64{1})
	d.Sample(2, 1.0, r)
	if _, ok := d.Last("protean_fleet_empty:p50"); ok {
		t.Error("empty histogram produced a quantile point")
	}
}

func TestDeltaAndRateZeroOrigin(t *testing.T) {
	d := New(Config{})
	for e := 1; e <= 4; e++ {
		d.Observe("c", Point{Epoch: e, T: 0.5 * float64(e), V: float64(e * 100)})
	}
	// In-window delta: V(4)-V(2).
	if v, ok := d.Delta("c", 4, 2); !ok || v != 200 {
		t.Errorf("Delta(4,2) = %v, %v, want 200", v, ok)
	}
	// Window reaching before the first point: implicit zero origin.
	if v, ok := d.Delta("c", 2, 10); !ok || v != 200 {
		t.Errorf("Delta(2,10) = %v, %v, want 200 (zero origin)", v, ok)
	}
	// No point at the end epoch.
	if _, ok := d.Delta("c", 9, 1); ok {
		t.Error("Delta at missing epoch should fail")
	}
	// Rate: (400-200)/(2.0-1.0) = 200/s.
	if v, ok := d.Rate("c", 4, 2); !ok || v != 200 {
		t.Errorf("Rate(4,2) = %v, %v, want 200", v, ok)
	}
	// Zero-origin rate divides by time since t=0: 200/1.0.
	if v, ok := d.Rate("c", 2, 10); !ok || v != 200 {
		t.Errorf("Rate(2,10) = %v, %v, want 200", v, ok)
	}
}

func TestDownsampleEpochAligned(t *testing.T) {
	d := New(Config{})
	for e := 1; e <= 7; e++ {
		d.Observe("x", Point{Epoch: e, T: float64(e), V: float64(e)})
	}
	pts := d.Downsample("x", 3)
	// Buckets: 1-3 (mean 2), 4-6 (mean 5), 7 (mean 7).
	if len(pts) != 3 || pts[0].V != 2 || pts[1].V != 5 || pts[2].V != 7 {
		t.Fatalf("downsample = %+v", pts)
	}
	if pts[0].Epoch != 3 || pts[2].Epoch != 7 {
		t.Errorf("bucket stamps = %d, %d", pts[0].Epoch, pts[2].Epoch)
	}
	// Alignment is absolute: dropping the first epochs must not shift
	// bucket boundaries.
	d2 := New(Config{Capacity: 5})
	for e := 1; e <= 7; e++ {
		d2.Observe("x", Point{Epoch: e, T: float64(e), V: float64(e)})
	}
	pts2 := d2.Downsample("x", 3) // retained 3..7 → buckets {3},{4,5,6},{7}
	if len(pts2) != 3 || pts2[0].V != 3 || pts2[1].V != 5 || pts2[2].V != 7 {
		t.Fatalf("aligned downsample = %+v", pts2)
	}
}

func TestWriteJSONDeterministicAndWindowed(t *testing.T) {
	build := func() *Store {
		d := New(Config{})
		r := telemetry.New(telemetry.Config{})
		r.Counter("a", "x_total", "").Add(1)
		r.Gauge("b", "g", "").Set(2.5)
		for e := 1; e <= 4; e++ {
			d.Sample(e, 0.5*float64(e), r)
		}
		return d
	}
	export := func(d *Store) string {
		var b strings.Builder
		if err := d.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := export(build()), export(build())
	if a != b {
		t.Fatal("identical stores exported different bytes")
	}
	if !strings.Contains(a, `"protean_a_x_total": [{"e":1,`) {
		t.Errorf("unexpected export shape:\n%s", a)
	}
	var w strings.Builder
	if err := build().WriteWindowJSON(&w, 2); err != nil {
		t.Fatal(err)
	}
	win := w.String()
	if strings.Contains(win, `{"e":1,`) || strings.Contains(win, `{"e":2,`) {
		t.Errorf("window kept points outside trailing 2 epochs:\n%s", win)
	}
	if !strings.Contains(win, `{"e":3,`) || !strings.Contains(win, `{"e":4,`) {
		t.Errorf("window dropped in-range points:\n%s", win)
	}
	var nilStore *Store
	var nb strings.Builder
	if err := nilStore.WriteJSON(&nb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nb.String(), `"last_epoch": 0`) {
		t.Errorf("nil store export:\n%s", nb.String())
	}
	nilStore.Observe("x", Point{})
	nilStore.Sample(1, 0.5, nil)
	if nilStore.Names() != nil || nilStore.LastEpoch() != 0 {
		t.Error("nil store not inert")
	}
}

func TestQuantLabel(t *testing.T) {
	for q, want := range map[float64]string{0.5: "p50", 0.95: "p95", 0.99: "p99", 0.999: "p99.9", 1: "p100"} {
		if got := quantLabel(q); got != want {
			t.Errorf("quantLabel(%v) = %q, want %q", q, got, want)
		}
	}
}
