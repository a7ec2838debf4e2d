package cli

import (
	"flag"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/live"
)

// RunExports is the span-export group of one instrumented run (gpufaas
// multiplex and repart): the -trace, -metrics, -attrib, -flame, -slo
// and -alerts flags, and the consumers they attach to the run's
// collector before its first span.
type RunExports struct {
	Trace, Metrics, Attrib, Flame, SLO, Alerts string
	// Sample keeps ~1/Sample of task trees in the trace (0 keeps all).
	Sample int

	out      Outputs
	stream   *obs.TraceStream
	section  *obs.TraceSection
	streamer *analyze.Streamer
}

// AddRunExports registers the group's flags on fs.
func AddRunExports(fs *flag.FlagSet) *RunExports {
	x := &RunExports{}
	fs.StringVar(&x.Trace, "trace", "", "write a Chrome trace-event JSON file for this run")
	fs.StringVar(&x.Metrics, "metrics", "", "write Prometheus text metrics for this run")
	fs.StringVar(&x.Attrib, "attrib", "", "write the latency-attribution JSON for this run")
	fs.StringVar(&x.Flame, "flame", "", "write folded flamegraph stacks for this run")
	fs.StringVar(&x.SLO, "slo", "", "SLO burn-rate rules app:latency:target[:window], comma-separated")
	fs.StringVar(&x.Alerts, "alerts", "", "write the SLO alert stream for this run (requires -slo)")
	return x
}

// Validate checks the group's flags: -alerts needs -slo rules to
// monitor, and the rules must parse.
func (x *RunExports) Validate() error {
	if x.Alerts != "" && x.SLO == "" {
		return Usagef("-alerts requires -slo")
	}
	if x.SLO != "" {
		if _, err := analyze.ParseSLOSpec(x.SLO); err != nil {
			return Usagef("-slo: %v", err)
		}
	}
	return nil
}

// attributing reports whether any attribution artifact is requested.
func (x *RunExports) attributing() bool {
	return x.Attrib != "" || x.Flame != "" || x.Alerts != ""
}

// Observe reports whether the run needs deep instrumentation.
func (x *RunExports) Observe() bool {
	return x.Trace != "" || x.Metrics != "" || x.attributing()
}

// Start opens the -trace file and returns the run's OnPlatform hook.
// The hook attaches the trace section (named by the collector's
// scope), the live span tail and series store when srv is non-nil,
// span sampling and the attribution streamer.
func (x *RunExports) Start(srv *live.Server) (func(*core.Platform), error) {
	if w := x.out.Create(x.Trace); w != nil {
		x.stream = obs.NewTraceStream(w)
	}
	if err := x.out.Err(); err != nil {
		return nil, err
	}
	return func(pl *core.Platform) {
		c := pl.Obs
		var sinks []obs.SpanSink
		if x.stream != nil {
			x.section = x.stream.Section(c.Scope())
			sinks = append(sinks, x.section)
		}
		if srv != nil {
			srv.AttachDB(c.Scope(), pl.TSDB)
			sinks = append(sinks, srv.Tail(c.Scope()))
		}
		if len(sinks) > 0 {
			c.SetSink(live.Tee(sinks...))
		}
		c.SetSampleMod(x.Sample)
		if x.attributing() {
			x.streamer = analyze.NewStreamer(c)
		}
	}, nil
}

// Abort closes the open files of a run that failed and returns err.
func (x *RunExports) Abort(err error) error { return x.out.Close(err) }

// Finish flushes the collector's remaining spans (parked daemon
// lifecycles included) into the sinks, completes the trace, and writes
// the metrics and then the attribution artifacts. attribScope, when
// non-empty, renames the collector for the attribution artifacts only.
func (x *RunExports) Finish(c *obs.Collector, attribScope string) error {
	c.Close()
	if x.stream != nil {
		err := x.section.Err()
		if cerr := x.stream.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return x.out.Close(err)
		}
	}
	if w := x.out.Create(x.Metrics); w != nil {
		if err := obs.WritePrometheus(w, c); err != nil {
			return x.out.Close(err)
		}
	}
	if x.streamer == nil {
		return x.out.Close(nil)
	}
	if attribScope != "" {
		c.SetScope(attribScope)
	}
	rep := analyze.BuildReport(x.streamer)
	var err error
	if w := x.out.Create(x.Attrib); w != nil {
		err = rep.WriteJSON(w)
	}
	if w := x.out.Create(x.Flame); w != nil && err == nil {
		err = analyze.WriteFolded(w, rep)
	}
	if w := x.out.Create(x.Alerts); w != nil && err == nil {
		err = analyze.WriteAlerts(w, x.streamer)
	}
	return x.out.Close(err)
}
