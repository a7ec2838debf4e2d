package analyze

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// Rule is one latency objective: at least Target fraction of an app's
// tasks inside any sliding Window must complete successfully within
// Latency (all on the virtual clock).
type Rule struct {
	App     string
	Latency time.Duration
	Target  float64       // e.g. 0.95
	Window  time.Duration // sliding window; DefaultSLOWindow if zero
}

// DefaultSLOWindow is the sliding window used when a rule omits one.
const DefaultSLOWindow = 60 * time.Second

// ParseSLOSpec parses a comma-separated list of rules, each
// "<app>:<latency>:<target>[:<window>]", e.g.
// "llama-complete:12s:0.9,llama-load:30s:0.99:120s".
func ParseSLOSpec(spec string) ([]Rule, error) {
	var rules []Rule
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("slo: %q: want app:latency:target[:window]", part)
		}
		r := Rule{App: fields[0], Window: DefaultSLOWindow}
		if r.App == "" {
			return nil, fmt.Errorf("slo: %q: empty app", part)
		}
		if seen[r.App] {
			return nil, fmt.Errorf("slo: duplicate rule for app %q", r.App)
		}
		seen[r.App] = true
		var err error
		if r.Latency, err = time.ParseDuration(fields[1]); err != nil || r.Latency <= 0 {
			return nil, fmt.Errorf("slo: %q: bad latency %q", part, fields[1])
		}
		if _, err = fmt.Sscanf(fields[2], "%g", &r.Target); err != nil || r.Target <= 0 || r.Target >= 1 {
			return nil, fmt.Errorf("slo: %q: target must be in (0,1)", part)
		}
		if len(fields) == 4 {
			if r.Window, err = time.ParseDuration(fields[3]); err != nil || r.Window <= 0 {
				return nil, fmt.Errorf("slo: %q: bad window %q", part, fields[3])
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("slo: empty spec")
	}
	return rules, nil
}

// sloSeriesCap bounds the per-app tsdb event series backing the
// sliding window. A window holding more events than this is clipped
// (and counted in slo_window_clipped_total); size it above the densest
// window the scenario produces.
var sloSeriesCap = 1 << 16

// appState tracks one rule's sliding window and its alert. The window
// lives in tsdb event series; the alert state machine is the tsdb
// alert engine's.
type appState struct {
	rule       Rule
	evSeries   *tsdb.Series // per-task outcomes (0 good / 1 bad)
	burnSeries *tsdb.Series // burn rate after each event
	alert      *tsdb.Alert  // the engine-backed "slo-burn" rule
}

// Monitor evaluates SLO burn rates live over the span stream. It is
// read-only with respect to the simulation: it never schedules events
// and does not steer the repartitioning controller. Alert windows are
// recorded retroactively (AddSpan at clear time) so the monitor never
// leaves spans open; burn events and alert counts flow through the
// collector's metrics registry.
type Monitor struct {
	c     *obs.Collector
	clk   obs.Clock
	apps  map[string]*appState
	order []string
}

// NewMonitor attaches a monitor for the given rules to the collector's
// span stream. Per app, its sliding window lives in db event series:
// "slo:events" records each terminal task outcome (0 good, 1 bad) at
// its end time and "slo:burn" the burn rate after it, so the signal is
// queryable while the run is live (db.Latest("slo:burn", ...) is the
// reusable control input for autoscalers and the HTTP plane). A nil db
// gets a private store over its own registry, which keeps the alert
// engine's alert_*_total counters out of the collector's exported
// metrics. A nil collector yields a nil (no-op) monitor.
func NewMonitor(c *obs.Collector, clk obs.Clock, rules []Rule, db *tsdb.DB) *Monitor {
	if c == nil || len(rules) == 0 {
		return nil
	}
	if db == nil {
		db = tsdb.New(obs.NewRegistry(clk), clk, tsdb.Config{})
	}
	m := &Monitor{c: c, clk: clk, apps: make(map[string]*appState)}
	for _, r := range rules {
		if r.Window <= 0 {
			r.Window = DefaultSLOWindow
		}
		app := r.App
		st := &appState{
			rule:       r,
			evSeries:   db.EventSeries("slo:events", sloSeriesCap, obs.L("app", app)),
			burnSeries: db.EventSeries("slo:burn", sloSeriesCap, obs.L("app", app)),
		}
		// An event-driven rule (no Series, no For — fire on the first
		// burn >= 1, resolve on the first burn < 1) fed each per-task
		// burn value at its event time. The OnEvent hook counts
		// slo_alerts_total on firing and records the retroactive
		// slo/burn span on resolution, while the pending/firing state,
		// alert:state series and incident history stay queryable live.
		st.alert = db.AddAlert(tsdb.AlertRule{
			Name:      "slo-burn",
			Labels:    []obs.Label{obs.L("app", app)},
			Threshold: 1,
			OnEvent: func(ev tsdb.AlertEvent) {
				switch {
				case ev.State == tsdb.AlertFiring:
					m.c.Metrics().Counter("slo_alerts_total", obs.L("app", app)).Inc()
				case ev.Incident != nil:
					m.c.AddSpan("slo", "burn", "slo:"+app, 0, ev.Incident.Start, ev.Incident.End,
						obs.String("app", app),
						obs.Float("peak_burn", ev.Incident.Peak),
						obs.Int("events", ev.Incident.Evals),
					)
				}
			},
		})
		m.apps[app] = st
		m.order = append(m.order, app)
	}
	c.OnSpanEnd(m.onSpan)
	return m
}

// record adds one terminal outcome at its event time and returns the
// burn rate over the window ending there: the fraction of the error
// budget (1-target) consumed by the window's bad fraction, so burn >= 1
// means the objective is being violated. The bad count is a windowed
// sum of 0/1 samples — exact integers, so the quotient is exact too.
// complete is false when a clipped ring degraded burn to an estimate
// over what is retained.
func (st *appState) record(at time.Duration, bad bool) (burn float64, complete bool) {
	v := 0.0
	if bad {
		v = 1
	}
	st.evSeries.Append(at, v)
	cutoff := at - st.rule.Window
	n, complete := st.evSeries.CountSince(cutoff)
	badFrac := st.evSeries.SumSince(cutoff) / float64(n)
	return badFrac / (1 - st.rule.Target), complete
}

func (m *Monitor) onSpan(s obs.Span) {
	if s.Cat != "dfk" || s.Name != "task" {
		return
	}
	st, ok := m.apps[s.Attr("app")]
	if !ok {
		return
	}
	// Shed tasks are admission-control availability loss, counted in
	// faas_tasks_shed_total; they are not latency-SLO events. Folding
	// them into the burn signal would make shedding self-sustaining:
	// sheds raise burn, burn sustains shedding.
	if s.Attr("status") == "shed" {
		return
	}
	good := s.Attr("status") == "done" && s.Duration() <= st.rule.Latency
	verdict := "good"
	if !good {
		verdict = "bad"
	}
	m.c.Metrics().Counter("slo_events_total", obs.L("app", st.rule.App), obs.L("verdict", verdict)).Inc()
	burn, complete := st.record(s.End, !good)
	if !complete {
		m.c.Metrics().Counter("slo_window_clipped_total", obs.L("app", st.rule.App)).Inc()
	}
	st.burnSeries.Append(s.End, burn)
	st.alert.Observe(s.End, burn)
}

// Close flushes alert windows still burning at run end, clamped to the
// current virtual time. Safe on a nil monitor.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	now := m.clk.Now()
	for _, app := range m.order {
		m.apps[app].alert.Resolve(now)
	}
}
