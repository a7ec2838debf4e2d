package report

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/tsdb"
)

// ScaleOptions parameterizes the million-task throughput artifact.
// Zero values take the core.ScaleConfig defaults.
type ScaleOptions struct {
	Tasks, Shards, Workers, Window int
	ArrivalRate                    float64
	Seed                           int64
	// SampleMod enables deterministic span sampling (kept task trees
	// ~1/SampleMod).
	SampleMod int
	// TracePath, when set, spills each shard's Chrome trace section to
	// a temp file during the run (shards render concurrently) and
	// splices them into one Perfetto-loadable artifact at this path.
	TracePath string
	// Live, when set, attaches each shard to the live observability
	// plane: a series store and a span tail under scope
	// "scale/shard<N>", and batched progress.
	Live *live.Server
	// Alerts, when set, renders each shard's end-of-run alert-rule
	// history (engine state + resolved incidents, shard order) to this
	// writer, forcing per-shard tsdb stores on. Purely virtual:
	// byte-identical at any -parallel level.
	Alerts io.Writer
}

func (o ScaleOptions) config() core.ScaleConfig {
	return core.ScaleConfig{
		Tasks: o.Tasks, Shards: o.Shards, Workers: o.Workers, Window: o.Window,
		ArrivalRate: o.ArrivalRate, Seed: o.Seed, SampleMod: o.SampleMod,
	}.WithDefaults()
}

// scaleWall holds the wall-clock side of one run. These numbers vary
// run to run; everything in core.ScaleResult is virtual and
// deterministic. Determinism tests must only assert the latter.
type scaleWall struct {
	elapsed    time.Duration
	allocs     uint64 // heap objects allocated during the run
	allocBytes uint64 // bytes allocated during the run
}

func (w scaleWall) eventsPerSec(events int64) float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(events) / w.elapsed.Seconds()
}

// Scale runs the million-task scenario and writes the throughput
// artifact: the deterministic virtual results ("virtual:" and
// "shard N:" lines, byte-identical at any -parallel level) followed by
// wall-clock measurements ("wall:" lines — elapsed, events/sec, and
// the allocation proxy for peak memory).
func Scale(w io.Writer, opts ScaleOptions) error {
	bw := bufio.NewWriter(w)
	header(bw, "Million-task throughput — sharded open-loop scenario")
	cfg := opts.config()
	// The shard stores only surface through the telemetry hook, which
	// captures each handle into its shard slot (index-addressed, so
	// capture order — and with it the alerts artifact — is independent
	// of shard scheduling).
	var shardDBs []*tsdb.DB
	cfg.Telemetry = &core.ScaleTelemetry{}
	if opts.Live != nil || opts.Alerts != nil {
		shardDBs = make([]*tsdb.DB, cfg.Shards)
		cfg.Telemetry.TSDB = &tsdb.Config{}
		cfg.Telemetry.OnShardDB = func(shard int, db *tsdb.DB) {
			shardDBs[shard] = db
			opts.Live.AttachDB(shardScope(shard), db)
		}
	}
	if opts.Live != nil {
		opts.Live.Progress().SetShards(cfg.Shards)
		cfg.Telemetry.Progress = opts.Live.Progress()
	}
	res, wall, err := runScale(cfg, opts)
	if err != nil {
		return err
	}
	writeScaleRun(bw, cfg, res, wall)
	if err := writeScaleAlerts(opts.Alerts, shardDBs); err != nil {
		return err
	}
	return bw.Flush()
}

// shardScope names one shard on the live plane and in the trace.
func shardScope(shard int) string { return fmt.Sprintf("scale/shard%d", shard) }

// writeScaleAlerts renders each shard's alert history in shard order.
func writeScaleAlerts(w io.Writer, dbs []*tsdb.DB) error {
	if w == nil {
		return nil
	}
	for i, db := range dbs {
		if db == nil {
			continue
		}
		if err := tsdb.WriteAlertHistory(w, fmt.Sprintf("shard=%d ", i), db); err != nil {
			return err
		}
	}
	return nil
}

// runScale executes one scenario run, timing it and measuring
// allocation deltas. With a trace path, each shard's section spills to
// its own temp file as the run progresses, and the files are spliced
// into the final artifact afterwards.
func runScale(cfg core.ScaleConfig, opts ScaleOptions) (*core.ScaleResult, scaleWall, error) {
	tracePath := opts.TracePath
	var wall scaleWall
	var files []*os.File
	var writers []*bufio.Writer
	var sections []*obs.TraceSection
	cfg.Sinks = make([]obs.SpanSink, cfg.Shards)
	if tracePath != "" {
		defer func() {
			for _, f := range files {
				f.Close()
				os.Remove(f.Name())
			}
		}()
		for i := range cfg.Sinks {
			f, err := os.CreateTemp("", "scale-shard-*.trace")
			if err != nil {
				return nil, wall, err
			}
			files = append(files, f)
			fw := bufio.NewWriterSize(f, 1<<20)
			writers = append(writers, fw)
			sec := obs.NewTraceSection(fw, i+1, shardScope(i))
			sections = append(sections, sec)
			cfg.Sinks[i] = sec
		}
	}
	if opts.Live != nil {
		for i := range cfg.Sinks {
			cfg.Sinks[i] = live.Tee(cfg.Sinks[i], opts.Live.Tail(shardScope(i)))
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := core.RunMillionTask(cfg)
	wall.elapsed = time.Since(t0)
	runtime.ReadMemStats(&after)
	wall.allocs = after.Mallocs - before.Mallocs
	wall.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, wall, err
	}
	if tracePath != "" {
		for i, sec := range sections {
			if err := sec.Err(); err != nil {
				return nil, wall, err
			}
			if err := writers[i].Flush(); err != nil {
				return nil, wall, err
			}
		}
		out, err := os.Create(tracePath)
		if err != nil {
			return nil, wall, err
		}
		defer out.Close()
		ts := obs.NewTraceStream(out)
		for _, f := range files {
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return nil, wall, err
			}
			if err := ts.Append(bufio.NewReaderSize(f, 1<<20)); err != nil {
				return nil, wall, err
			}
		}
		if err := ts.Close(); err != nil {
			return nil, wall, err
		}
	}
	return res, wall, nil
}

// writeScaleRun renders one run: config echo, deterministic virtual
// lines, then wall-clock lines. Span collection always streams, so the
// config echo's mode is fixed.
func writeScaleRun(w io.Writer, cfg core.ScaleConfig, res *core.ScaleResult, wall scaleWall) {
	c := cfg.WithDefaults()
	fmt.Fprintf(w, "config: mode=streaming tasks=%d shards=%d workers=%d window=%d arrival=%.0f/s seed=%d sample_mod=%d\n",
		res.Tasks, len(res.Shards), c.Workers, c.Window, c.ArrivalRate, c.Seed, c.SampleMod)
	fmt.Fprintf(w, "virtual: events=%d spans=%d retained_high_water=%d makespan=%s\n",
		res.Events, res.Spans, res.MaxRetained, res.Makespan)
	fmt.Fprintf(w, "virtual: latency p50=%s p90=%s p99=%s max=%s\n",
		res.Latencies.Percentile(50), res.Latencies.Percentile(90),
		res.Latencies.Percentile(99), res.Latencies.Max())
	for _, sr := range res.Shards {
		fmt.Fprintf(w, "shard %d: tasks=%d events=%d spans=%d retained=%d makespan=%s\n",
			sr.Shard, sr.Tasks, sr.Events, sr.Spans, sr.MaxRetained, sr.Makespan)
	}
	fmt.Fprintf(w, "wall: elapsed=%s events_per_sec=%.0f\n", wall.elapsed.Round(time.Millisecond), wall.eventsPerSec(res.Events))
	fmt.Fprintf(w, "wall: allocs=%d alloc_bytes=%d\n", wall.allocs, wall.allocBytes)
}
