package report

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// AttributionArtifacts runs the instrumented experiment grid once and
// writes the selected attribution artifacts: the machine-readable
// attribution JSON (consumed by tracediff) to attribW, folded
// flamegraph stacks to flameW, and the SLO alert stream to alertsW.
// An analyze.Streamer per cell attributes tasks as the spans end. Any
// writer may be nil to skip that artifact; slo is the burn-rate spec
// ("" disables the monitor, leaving the alert stream empty).
func AttributionArtifacts(attribW, flameW, alertsW io.Writer, completions int, slo string) error {
	streamers := make([]*analyze.Streamer, numObservedCells)
	if _, err := runObservedGrid(completions, slo, func(i int, _ string, c *obs.Collector) {
		streamers[i] = analyze.NewStreamer(c)
	}); err != nil {
		return err
	}
	rep := analyze.BuildReport(streamers...)
	if attribW != nil {
		if err := rep.WriteJSON(attribW); err != nil {
			return err
		}
	}
	if flameW != nil {
		if err := analyze.WriteFolded(flameW, rep); err != nil {
			return err
		}
	}
	if alertsW != nil {
		return analyze.WriteAlerts(alertsW, streamers...)
	}
	return nil
}

// table1Attribution reruns the Table 1 bursts instrumented and
// attributes them, returning the report and the bursts' collectors.
func table1Attribution() (*analyze.Report, []*obs.Collector, error) {
	streamers := make([]*analyze.Streamer, len(core.Table1Modes))
	_, cols, err := core.RunTable1ObservedHook(true, "", func(i int, c *obs.Collector) {
		streamers[i] = analyze.NewStreamer(c)
	})
	if err != nil {
		return nil, nil, err
	}
	return analyze.BuildReport(streamers...), cols, nil
}

// Attribution renders the human-readable latency-attribution section:
// the Table 1 burst per technique, each task's end-to-end time
// decomposed into phases and aggregated into per-scope blame profiles,
// plus the time-share vs. MPS diff that explains the paper's latency
// gap phase by phase.
func Attribution(w io.Writer, completions int) error {
	header(w, "Latency attribution — where each task's time goes, per multiplexing technique")
	rep, _, err := table1Attribution()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nblame profiles (mean ms per task per phase; %d tasks total):\n\n", len(rep.Tasks))
	if err := rep.WriteText(w); err != nil {
		return err
	}

	// The paper's Fig. 4/5 story, restated as a trace diff: the
	// time-share → MPS latency win is a kernel-queue-delay win.
	byScope := func(scope string) *analyze.Report {
		sub := &analyze.Report{}
		for _, t := range rep.Tasks {
			if t.Scope == scope {
				sub.Tasks = append(sub.Tasks, t)
			}
		}
		return sub
	}
	d := analyze.Diff(
		byScope("table1/"+string(core.ModeTimeshare)),
		byScope("table1/"+string(core.ModeMPS)),
		"table1/timeshare", "table1/mps")
	fmt.Fprintln(w)
	return d.WriteText(w)
}
