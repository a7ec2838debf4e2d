package report

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
)

// observedModes and observedProcs span the instrumented Fig. 4/5 grid;
// the Table 1 bursts follow its cells.
var observedModes = []core.Mode{core.ModeTimeshare, core.ModeMPS, core.ModeMIG}

const observedProcs = 4

// numObservedCells is the number of collectors runObservedGrid
// produces: the grid cells, then one per Table 1 burst.
var numObservedCells = len(observedModes)*observedProcs + len(core.Table1Modes)

// runObservedGrid reruns the Fig. 4/5 multiplexing grid and the Table 1
// bursts with deep instrumentation and returns every run's collector
// in a fixed order (fig45 grid cells first, then the Table 1 rows),
// each Closed. hook(i, scope, c) runs on cell i's collector before its
// first span, so exporters attach as sinks or span listeners; it is
// called concurrently for different cells. The cells are independent
// simulations run through the harness, which preserves input order
// regardless of worker count — so the list, and anything exported
// from it, is deterministic at any parallelism level. A non-empty slo
// spec (see core.Options.SLO) attaches the burn-rate monitor to every
// run.
func runObservedGrid(completions int, slo string, hook func(i int, scope string, c *obs.Collector)) ([]*obs.Collector, error) {
	if completions <= 0 {
		completions = 100
	}
	nGrid := len(observedModes) * observedProcs
	cells, err := harness.Map(nGrid, func(i int) (*obs.Collector, error) {
		m, n := observedModes[i/observedProcs], i%observedProcs+1
		scope := fmt.Sprintf("fig45/%s/p%d", m, n)
		r, err := core.RunMultiplex(core.MultiplexConfig{
			Mode: m, Processes: n, Completions: completions, Observe: true, SLO: slo,
			OnCollector: func(c *obs.Collector) { hook(i, scope, c) },
		})
		if err != nil {
			return nil, fmt.Errorf("report: observed %s n=%d: %w", m, n, err)
		}
		r.Obs.SetScope(scope)
		r.Obs.Close()
		return r.Obs, nil
	})
	if err != nil {
		return nil, err
	}
	// The table1 scope is assigned inside the run; hooks need it up
	// front, and the mode order is fixed, so it is known here.
	_, t1, err := core.RunTable1ObservedHook(true, slo, func(i int, c *obs.Collector) {
		hook(nGrid+i, "table1/"+string(core.Table1Modes[i]), c)
	})
	if err != nil {
		return nil, err
	}
	for _, c := range t1 {
		c.Close()
	}
	return append(cells, t1...), nil
}

// Observability runs the instrumented experiments once and exports
// their merged traces and metrics: a Chrome trace-event JSON stream
// (Perfetto-loadable) to traceW and Prometheus text exposition to
// promW. Either writer may be nil to skip that artifact. Each cell's
// spans stream into its own pre-rendered trace section (pid = cell
// position) as they end, and the artifact splices the sections in cell
// order. sampleMod n > 1 deterministically keeps ~1/n of task trees in
// the trace (metrics are unaffected).
func Observability(traceW, promW io.Writer, completions, sampleMod int) error {
	secs := make([]*obs.TraceSection, numObservedCells)
	bufs := make([]bytes.Buffer, numObservedCells)
	cols, err := runObservedGrid(completions, "", func(i int, scope string, c *obs.Collector) {
		if traceW != nil {
			secs[i] = obs.NewTraceSection(&bufs[i], i+1, scope)
			c.SetSink(secs[i])
		}
		c.SetSampleMod(sampleMod)
	})
	if err != nil {
		return err
	}
	if traceW != nil {
		ts := obs.NewTraceStream(traceW)
		for i, sec := range secs {
			if err := sec.Err(); err != nil {
				return err
			}
			if err := ts.Append(&bufs[i]); err != nil {
				return err
			}
		}
		if err := ts.Close(); err != nil {
			return err
		}
	}
	if promW != nil {
		return obs.WritePrometheus(promW, cols...)
	}
	return nil
}
