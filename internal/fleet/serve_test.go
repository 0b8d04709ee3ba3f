package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestObservabilityExportsDeterministicAcrossWorkerCounts pins the new
// observability surfaces to the fleet's concurrency contract: the Chrome
// trace (spans + events) and the folded-stack deep profile must be
// byte-identical between a serial and an 8-worker run of the same seeded
// chaos fleet, exactly like the Prometheus and JSONL exports.
func TestObservabilityExportsDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (string, string) {
		f, err := New(chaosConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
		var trace, prof strings.Builder
		if err := f.Telemetry().WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteProfile(&prof); err != nil {
			t.Fatal(err)
		}
		return trace.String(), prof.String()
	}
	trace1, prof1 := run(1)
	trace8, prof8 := run(8)
	if trace1 != trace8 {
		t.Error("Chrome traces diverge across worker counts")
	}
	if prof1 != prof8 {
		t.Errorf("folded profiles diverge across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", prof1, prof8)
	}
	if !strings.Contains(trace1, `"ph":"X"`) {
		t.Error("chaos PC3D run recorded no spans")
	}
	if !strings.Contains(prof1, ";") {
		t.Errorf("profile carries no stacks:\n%s", prof1)
	}
	// The trace must parse as trace-event JSON (the Perfetto contract).
	var env struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace1), &env); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(env.TraceEvents) == 0 {
		t.Error("Chrome trace has no events")
	}
}

// TestLiveServeEndpoints drives the scrape surface against a running
// fleet: all four endpoints must answer mid-run, and the post-run scrape
// must carry the completed servers.
func TestLiveServeEndpoints(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := f.Run()
		done <- err
	}()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Wait until at least one server has published a snapshot, then hit
	// every endpoint while the run is still live (the run takes seconds;
	// publishing starts within the first few quanta).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, body := get("/healthz"); code == 200 && !strings.Contains(body, `"published":0`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no server published a live snapshot in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, path := range []string{"/metrics", "/trace", "/profile", "/healthz"} {
		code, body := get(path)
		if code != 200 {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
		if body == "" {
			t.Errorf("GET %s returned an empty body", path)
		}
	}
	if code, body := get("/trace"); code == 200 {
		var env struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Errorf("live /trace is not valid JSON: %v", err)
		}
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Post-run: every server has deposited its final snapshot.
	if _, body := get("/healthz"); !strings.Contains(body, `"published":5`) {
		t.Errorf("healthz after run = %s, want all 5 servers published", body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, "protean_") {
		t.Error("post-run /metrics carries no metrics")
	}
	if _, body := get("/profile"); !strings.Contains(body, ";") {
		t.Errorf("post-run /profile carries no stacks:\n%.300s", body)
	}
}

// TestControlRoutesMatchExports pins the export table's parity promise.
// Before the first barrier every control route answers with its row's
// empty-state body; after a fixed-seed migrate+SLO chaos run each control
// route serves exactly the bytes the post-run exports write: the
// accessors' renderings, one postmortem file per bundle, and the table
// writers behind cmd/fleet's output flags.
func TestControlRoutesMatchExports(t *testing.T) {
	f, err := New(sloChaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q", path, ct)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	empty := map[string]string{
		"/contend":    "{\"epoch\": 0}\n",
		"/audit":      "{\"epochs_checked\": 0}\n",
		"/slo":        "{\"epoch\": 0}\n",
		"/alerts":     "{\"fired\": 0}\n",
		"/postmortem": "[]\n",
	}
	rows := 0
	for _, e := range Exports {
		if want, ok := empty[e.Route]; ok {
			rows++
			if e.Empty != want {
				t.Errorf("%s row Empty = %q, want %q", e.Route, e.Empty, want)
			}
		}
	}
	if rows != len(empty) {
		t.Fatalf("export table has %d of the %d control routes", rows, len(empty))
	}
	for route, want := range empty {
		if got := get(route); got != want {
			t.Errorf("GET %s before the first barrier = %q, want %q", route, got, want)
		}
	}

	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var contend, audit, pm strings.Builder
	if err := f.ContendStatus().WriteJSON(&contend); err != nil {
		t.Fatal(err)
	}
	if err := f.AuditReport().WriteJSON(&audit); err != nil {
		t.Fatal(err)
	}
	bundles := f.Postmortems()
	if len(bundles) == 0 {
		t.Fatal("chaos run froze no postmortem bundle; /postmortem parity is vacuous")
	}
	pm.WriteString("[")
	for i, b := range bundles {
		if i > 0 {
			pm.WriteString(",")
		}
		pm.WriteString("\n" + b.JSON())
	}
	pm.WriteString("\n]\n")
	want := map[string]string{
		"/contend":    contend.String(),
		"/audit":      audit.String(),
		"/slo":        f.SLOStatusJSON(),
		"/alerts":     f.AlertLogJSON(),
		"/postmortem": pm.String(),
	}
	for route, w := range want {
		if got := get(route); got != w {
			t.Errorf("GET %s after the run differs from its export:\n-- route --\n%.400s\n-- export --\n%.400s", route, got, w)
		}
		if w == empty[route] {
			t.Errorf("%s still serves its empty-state body after the run", route)
		}
	}
	for _, e := range Exports {
		if e.Name == "" || want[e.Route] == "" {
			continue
		}
		var b strings.Builder
		if err := e.Write(f, &b); err != nil {
			t.Fatal(err)
		}
		if b.String() != want[e.Route] {
			t.Errorf("-%s writes different bytes from %s", e.Name, e.Route)
		}
	}
}
