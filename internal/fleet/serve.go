// Live scrape surface: an HTTP handler that exposes a running fleet's
// telemetry, causal trace and deep profile without perturbing the
// simulation. Each server simulation is single-goroutine; publishing works
// by having every server periodically deposit a deep-copied snapshot of
// its single-writer registry (and its samplers' deep profiles) into a
// mutex-guarded slot. Scrapes merge the deposited snapshots in
// server-index order — the same rollup discipline as the end-of-run merge
// — so a mid-run scrape is a coherent, if slightly stale, cluster view and
// the simulation itself never takes a lock.
package fleet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// publishEveryQuanta is how often each server deposits a fresh snapshot.
const publishEveryQuanta = 64

// liveState holds the per-server snapshots behind the scrape surface.
type liveState struct {
	mu    sync.Mutex
	regs  []*telemetry.Registry
	profs []map[string]*sampling.DeepProfile
}

func (l *liveState) publish(idx int, reg *telemetry.Registry, prof map[string]*sampling.DeepProfile) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.regs[idx] = reg
	l.profs[idx] = prof
}

// livePublisher is the per-server machine agent that deposits snapshots.
// It only reads simulation state (Registry.Clone, DeepLifetime), so adding
// it never changes what the simulation computes.
type livePublisher struct {
	live *liveState
	idx  int
	reg  *telemetry.Registry
	prof func() map[string]*sampling.DeepProfile
	step uint64
	next uint64
}

func (p *livePublisher) Tick(m *machine.Machine) {
	if m.Now() < p.next {
		return
	}
	p.next = m.Now() + p.step
	p.live.publish(p.idx, p.reg.Clone(), p.prof())
}

// liveSnapshot merges the currently published per-server snapshots — in
// server-index order, like the end-of-run rollup — into a fresh registry
// and per-app deep-profile map. Before Handler is called (or before any
// server has published) both are empty. Safe to call from any goroutine.
func (f *Fleet) liveSnapshot() (*telemetry.Registry, map[string]*sampling.DeepProfile) {
	out := telemetry.New(telemetry.Config{})
	profs := make(map[string]*sampling.DeepProfile)
	if f.live == nil {
		return out, profs
	}
	f.live.mu.Lock()
	defer f.live.mu.Unlock()
	for i, r := range f.live.regs {
		if r != nil {
			out.MergeFrom(r, i)
		}
	}
	for _, pm := range f.live.profs {
		mergeProfiles(profs, pm)
	}
	return out, profs
}

// controlSnapshot is the barrier steps' state at one barrier: the
// migrator's status, the auditor's report, and the SLO observer's rendered
// status, alert log and frozen bundles. A published snapshot is never
// mutated again.
type controlSnapshot struct {
	contend   *ContendStatus
	audit     *AuditReport
	sloStatus string
	alertLog  string
	bundles   []*slo.Bundle
}

// control returns the migrator's and auditor's live state, uncopied; valid
// only inside the single-threaded coordinator section.
func (f *Fleet) control() controlSnapshot {
	var s controlSnapshot
	if f.mig != nil {
		s.contend = f.mig.status
	}
	if f.audit != nil {
		s.audit = &f.audit.rep
	}
	return s
}

// publish deposits one snapshot of every step's state: runEpochs calls it
// once per barrier, after the last step, and Run once more after the
// auditor's horizon sweep.
func (f *Fleet) publish() {
	s := f.control()
	s.contend = s.contend.clone()
	s.audit = s.audit.clone()
	if o := f.sloObs; o != nil {
		s.sloStatus = o.eng.StatusJSON()
		s.alertLog = o.eng.Log().JSON()
		s.bundles = o.rec.Bundles()
	}
	f.snapMu.Lock()
	f.snap = s
	f.snapMu.Unlock()
}

// published returns the latest published snapshot. Safe from any goroutine.
func (f *Fleet) published() controlSnapshot {
	f.snapMu.Lock()
	defer f.snapMu.Unlock()
	return f.snap
}

// ContendStatus returns the migration control loop's latest published
// snapshot (nil before the first decision epoch, or when migration is
// off). Safe to call from any goroutine; the returned copy is the caller's.
func (f *Fleet) ContendStatus() *ContendStatus { return f.published().contend.clone() }

// AuditReport returns the conservation auditor's latest published report
// (nil before the first decision epoch, or when migration is off). Safe to
// call from any goroutine; the returned copy is the caller's.
func (f *Fleet) AuditReport() *AuditReport { return f.published().audit.clone() }

// SLOStatusJSON returns the engine's latest published status ("" before the
// first barrier, or with SLO off). Safe from any goroutine.
func (f *Fleet) SLOStatusJSON() string { return f.published().sloStatus }

// AlertLogJSON returns the latest published alert log ("" before the first
// barrier, or with SLO off). Safe from any goroutine.
func (f *Fleet) AlertLogJSON() string { return f.published().alertLog }

// Postmortems returns the flight recorder's frozen bundles (capture order).
// Safe from any goroutine.
func (f *Fleet) Postmortems() []*slo.Bundle {
	return append([]*slo.Bundle(nil), f.published().bundles...)
}

// Export is one row of the fleet's export table: an artifact with the
// cmd/fleet output flag that writes it after the run, the -serve route
// that serves it, or both. A row with both is a control-plane export
// served from the published snapshot, so its route scraped after the run
// returns exactly the bytes its flag writes.
type Export struct {
	// Name is the cmd/fleet output flag ("" for a served-only row).
	Name string
	// Route is the -serve path ("" for a written-only row).
	Route string
	// Usage is the flag's help text.
	Usage string
	// Empty is a control row's body before its barrier step first
	// publishes, and whenever that step is off.
	Empty string
	// Write renders the row for f.
	Write func(f *Fleet, w io.Writer) error

	// mime is the route's Content-Type ("" = application/json).
	mime string
	// body renders a control row from a snapshot ("" = nothing published).
	body func(s *controlSnapshot) string
}

// controlRow completes a control-plane row: Write renders the published
// snapshot through body.
func controlRow(e Export, body func(s *controlSnapshot) string) Export {
	e.body = body
	e.Write = func(f *Fleet, w io.Writer) error {
		s := f.published()
		_, err := io.WriteString(w, e.render(&s))
		return err
	}
	return e
}

// render returns a control row's body for s, or its Empty body.
func (e Export) render(s *controlSnapshot) string {
	if body := e.body(s); body != "" {
		return body
	}
	return e.Empty
}

var (
	contendExport = controlRow(Export{
		Name: "contend-out", Route: "/contend", Empty: "{\"epoch\": 0}\n",
		Usage: "write the final contention/migration status as JSON to this file (- = stdout)",
	}, func(s *controlSnapshot) string {
		if s.contend == nil {
			return ""
		}
		var b strings.Builder
		s.contend.WriteJSON(&b) //nolint:errcheck // strings.Builder never errors
		return b.String()
	})
	auditExport = controlRow(Export{
		Name: "audit-out", Route: "/audit", Empty: "{\"epochs_checked\": 0}\n",
		Usage: "write the conservation auditor's report as JSON to this file (- = stdout)",
	}, func(s *controlSnapshot) string {
		if s.audit == nil {
			return ""
		}
		var b strings.Builder
		s.audit.WriteJSON(&b) //nolint:errcheck // strings.Builder never errors
		return b.String()
	})
)

// Exports is the fleet's export table, in flag-writing and route-listing
// order. The live routes (/metrics, /trace, /profile) merge the servers'
// published scrape snapshots; their end-of-run counterparts are the
// -metrics, -spans and -profile rows.
var Exports = []Export{
	{Route: "/metrics", mime: "text/plain; version=0.0.4", Write: func(f *Fleet, w io.Writer) error {
		reg, _ := f.liveSnapshot()
		return reg.WritePrometheus(w)
	}},
	{Route: "/trace", Write: func(f *Fleet, w io.Writer) error {
		reg, _ := f.liveSnapshot()
		return reg.WriteChromeTrace(w)
	}},
	{Route: "/profile", mime: "text/plain", Write: func(f *Fleet, w io.Writer) error {
		_, profs := f.liveSnapshot()
		return writeFoldedProfiles(w, profs)
	}},
	{Name: "metrics", Usage: "write the cluster telemetry rollup in Prometheus text format to this file (- = stdout)",
		Write: func(f *Fleet, w io.Writer) error { return f.tel.WritePrometheus(w) }},
	{Name: "trace", Usage: "write the merged event trace as JSONL to this file (- = stdout)",
		Write: func(f *Fleet, w io.Writer) error { return f.tel.WriteJSONL(w) }},
	{Name: "spans", Usage: "write the merged spans + events as Chrome trace-event JSON (Perfetto-loadable) to this file (- = stdout)",
		Write: func(f *Fleet, w io.Writer) error { return f.tel.WriteChromeTrace(w) }},
	{Name: "profile", Usage: "write the fleet deep profile as folded stacks (flamegraph/speedscope input) to this file (- = stdout)",
		Write: (*Fleet).WriteProfile},
	contendExport,
	auditExport,
	controlRow(Export{Route: "/slo", Empty: "{\"epoch\": 0}\n"},
		func(s *controlSnapshot) string { return s.sloStatus }),
	controlRow(Export{
		Name: "alerts-out", Route: "/alerts", Empty: "{\"fired\": 0}\n",
		Usage: "write the alert log (every SLO lifecycle transition) as JSON to this file (- = stdout)",
	}, func(s *controlSnapshot) string { return s.alertLog }),
	{Name: "tsdb-out", Usage: "write the full time-series store as JSON to this file (- = stdout)",
		Write: (*Fleet).WriteTSDB},
	controlRow(Export{Route: "/postmortem", Empty: "[]\n"}, func(s *controlSnapshot) string {
		if len(s.bundles) == 0 {
			return ""
		}
		var b strings.Builder
		b.WriteString("[")
		for i, bd := range s.bundles {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString("\n" + bd.JSON())
		}
		b.WriteString("\n]\n")
		return b.String()
	}),
	{Route: "/healthz", Write: (*Fleet).writeHealth},
}

// Handler enables live publishing and returns the scrape mux: one route
// per Exports row that has one —
//
//	/metrics  — Prometheus text of the merged per-server registries
//	/trace    — Chrome trace-event JSON (spans + events; Perfetto-loadable)
//	/profile  — folded stacks (app;func;block N) for flamegraph tools
//	/contend  — JSON contention-detector state (per-server verdicts,
//	            window quantile thresholds, migration log)
//	/audit    — JSON conservation-auditor report (per-epoch instance
//	            census + invariant violations)
//	/slo      — JSON SLO status (per-spec state, burn rate, since-epoch)
//	/alerts   — JSON alert log (every lifecycle transition in epoch order)
//	/postmortem — JSON array of frozen flight-recorder bundles
//	/healthz  — JSON liveness: servers, how many have published; status
//	            flips to "degraded" while the migration circuit breaker is
//	            open or once the conservation auditor has recorded a
//	            violation
//
// (the control routes answer with their row's Empty body until the
// barrier step publishes) plus the standard net/http/pprof handlers under
// /debug/pprof/ for the simulator process itself. Call before Run;
// scraping during the run returns the latest published snapshots.
func (f *Fleet) Handler() http.Handler {
	if f.live == nil {
		f.live = &liveState{
			regs:  make([]*telemetry.Registry, f.cfg.Servers),
			profs: make([]map[string]*sampling.DeepProfile, f.cfg.Servers),
		}
	}
	mux := http.NewServeMux()
	for _, e := range Exports {
		if e.Route == "" {
			continue
		}
		mime := e.mime
		if mime == "" {
			mime = "application/json"
		}
		mux.HandleFunc(e.Route, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", mime)
			e.Write(f, w) //nolint:errcheck // client went away
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeHealth is the /healthz body.
func (f *Fleet) writeHealth(w io.Writer) error {
	published := 0
	if f.live != nil {
		f.live.mu.Lock()
		for _, reg := range f.live.regs {
			if reg != nil {
				published++
			}
		}
		f.live.mu.Unlock()
	}
	status, reason := f.health()
	if reason != "" {
		_, err := fmt.Fprintf(w, "{\"status\":%q,\"reason\":%q,\"servers\":%d,\"published\":%d}\n",
			status, reason, f.cfg.Servers, published)
		return err
	}
	_, err := fmt.Fprintf(w, "{\"status\":%q,\"servers\":%d,\"published\":%d}\n", status, f.cfg.Servers, published)
	return err
}

// health reads the published coordinator state and reports "degraded"
// (with a reason) when the migration circuit breaker is open or the
// conservation auditor has recorded any violation; "ok" otherwise.
func (f *Fleet) health() (status, reason string) {
	s := f.published()
	if s.contend != nil && s.contend.BreakerState == "open" {
		return "degraded", "circuit breaker open"
	}
	if s.audit != nil && len(s.audit.Violations) > 0 {
		return "degraded", "audit violations"
	}
	return "ok", ""
}

// WriteProfile writes the end-of-run fleet deep profile as folded stacks,
// apps in name order, per-server profiles merged in server-index order —
// byte-identical at any worker count under a fixed seed. Valid after Run.
func (f *Fleet) WriteProfile(w io.Writer) error {
	profs := make(map[string]*sampling.DeepProfile)
	for _, pm := range f.serverProf {
		mergeProfiles(profs, pm)
	}
	return writeFoldedProfiles(w, profs)
}

// mergeProfiles folds src into dst app by app (cloning on first sight, so
// dst never aliases src's profiles).
func mergeProfiles(dst map[string]*sampling.DeepProfile, src map[string]*sampling.DeepProfile) {
	for app, d := range src {
		if p := dst[app]; p != nil {
			p.Merge(d)
		} else {
			dst[app] = d.Clone()
		}
	}
}

func writeFoldedProfiles(w io.Writer, profs map[string]*sampling.DeepProfile) error {
	apps := make([]string, 0, len(profs))
	for app := range profs {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		if err := profs[app].WriteFolded(w, app); err != nil {
			return err
		}
	}
	return nil
}
