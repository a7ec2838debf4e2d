package obs

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// captureSink records emitted span copies in emission order.
type captureSink struct{ spans []Span }

func (s *captureSink) EmitSpan(sp *Span) { s.spans = append(s.spans, *sp) }

// buildWorkload records a representative span mix on c: a pinned
// daemon lifecycle that never ends (clamped at flush), tasks whose
// children end out of ID order, and a retroactive AddSpan record.
func buildWorkload(clk *fakeClock, c *Collector) {
	worker := c.StartSpan("htex", "worker", "w0", 0)
	c.PinSpan(worker)
	t1 := c.StartSpan("dfk", "task", "task-1", 0, Int("task", 1))
	clk.t = time.Second
	t2 := c.StartSpan("dfk", "task", "task-2", 0, Int("task", 2))
	r1 := c.StartSpan("htex", "run", "w0", t1)
	c.AddSpan("simgpu", "gemm", "ctx0", r1, time.Second, 2*time.Second, Float("sms", 54))
	clk.t = 2 * time.Second
	// task-2 ends before task-1's run: the flush frontier must hold at
	// the open run span, not emit in end order.
	c.EndSpan(t2, String("status", "done"))
	clk.t = 3 * time.Second
	c.EndSpan(r1)
	c.EndSpan(t1, String("status", "done"))
}

// TestStreamingTraceMatchesSnapshot pins the trace of the workload —
// rendered live through a section sink, and spliced from a buffered
// section — to testdata/workload_trace.json, captured from the
// retired snapshot exporter: pinned spans last, the open pinned worker
// clamped at Close.
func TestStreamingTraceMatchesSnapshot(t *testing.T) {
	want, err := os.ReadFile("testdata/workload_trace.json")
	if err != nil {
		t.Fatal(err)
	}
	live := traceOf(t, "cell", buildWorkload)
	if !bytes.Equal(live, want) {
		t.Errorf("live trace differs from golden:\ngolden:\n%s\nlive:\n%s", want, live)
	}

	clk := &fakeClock{}
	c := New(clk)
	c.SetScope("cell")
	var section bytes.Buffer
	c.SetSink(NewTraceSection(&section, 1, "cell"))
	buildWorkload(clk, c)
	c.Close()
	var spliced bytes.Buffer
	ts := NewTraceStream(&spliced)
	if err := ts.Append(&section); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spliced.Bytes(), want) {
		t.Errorf("spliced trace differs from golden:\ngolden:\n%s\nspliced:\n%s", want, spliced.Bytes())
	}
}

// TestStreamingReleasesFlushedSpans checks that ended spans leave
// memory as the frontier passes them, while totals, the retained
// high-water and the open-span view stay accurate.
func TestStreamingReleasesFlushedSpans(t *testing.T) {
	clk := &fakeClock{}
	c := New(clk)
	sink := &captureSink{}
	c.SetSink(sink)
	buildWorkload(clk, c)

	if c.Len() != 5 {
		t.Errorf("Len() = %d, want 5 (flushed spans still counted)", c.Len())
	}
	// All four unpinned spans have ended and flushed; only the parked
	// pinned worker remains, still open.
	if open := c.CheckClosed(); len(open) != 1 || open[0].Name != "worker" {
		t.Errorf("open spans after flush = %+v, want just the pinned worker", open)
	}
	if len(sink.spans) != 4 {
		t.Errorf("sink received %d spans before Close, want 4", len(sink.spans))
	}
	// The frontier held at task-1's open run until the end, so all
	// five spans were in memory at once.
	if got := c.MaxRetained(); got != 5 {
		t.Errorf("MaxRetained() = %d, want 5", got)
	}
	// Close emits the still-open worker clamped to the current time.
	c.Close()
	if len(sink.spans) != 5 {
		t.Fatalf("sink received %d spans after Close, want 5", len(sink.spans))
	}
	if s := sink.spans[4]; s.Name != "worker" || s.End != clk.t {
		t.Errorf("pinned worker emitted as %+v, want clamped to %v", s, clk.t)
	}
}

// TestStreamingBoundedRetention drives many sequential task spans
// through a collector and checks the retained high-water stays flat —
// the bounded-memory property the scale scenario relies on — whether
// a sink is attached or flushed spans are discarded.
func TestStreamingBoundedRetention(t *testing.T) {
	drive := func(sink SpanSink) *Collector {
		clk := &fakeClock{}
		c := New(clk)
		c.SetSink(sink)
		for i := 0; i < 500; i++ {
			root := c.StartSpan("dfk", "task", "task", 0)
			child := c.StartSpan("htex", "run", "w0", root)
			clk.t += time.Millisecond
			c.EndSpan(child)
			c.EndSpan(root)
		}
		return c
	}
	sink := &captureSink{}
	for _, c := range []*Collector{drive(sink), drive(nil)} {
		if c.Len() != 1000 {
			t.Fatalf("Len() = %d, want 1000", c.Len())
		}
		if c.MaxRetained() > 8 {
			t.Errorf("MaxRetained() = %d, want a small constant (<= 8)", c.MaxRetained())
		}
		if got := c.Metrics().Counter("obs_spans_flushed_total").Value(); got != 1000 {
			t.Errorf("obs_spans_flushed_total = %v, want 1000", got)
		}
	}
	if len(sink.spans) != 1000 {
		t.Errorf("sink received %d spans, want 1000", len(sink.spans))
	}
}

// TestCheckClosedStreaming verifies leak detection keeps full fidelity
// with a sink attached: open spans survive flushing and Close, and a
// forgotten EndSpan is still reported.
func TestCheckClosedStreaming(t *testing.T) {
	clk := &fakeClock{}
	c := New(clk)
	c.SetSink(&captureSink{})
	worker := c.StartSpan("htex", "worker", "w0", 0)
	c.PinSpan(worker)
	leak := c.StartSpan("dfk", "task", "task-1", 0)
	done := c.StartSpan("dfk", "task", "task-2", 0)
	clk.t = time.Second
	c.EndSpan(done)
	_ = leak // never ended: this is the leak

	open := c.CheckClosed()
	if len(open) != 2 {
		t.Fatalf("CheckClosed() = %d spans, want 2 (worker + leaked task)", len(open))
	}
	c.Close()
	// Close emits clamped copies; the collector's own spans stay open so
	// the leak check still fires afterwards.
	open = c.CheckClosed()
	if len(open) != 2 {
		t.Errorf("CheckClosed() after Close = %d spans, want 2", len(open))
	}
	for _, s := range open {
		if s.End >= 0 {
			t.Errorf("CheckClosed returned a closed span: %+v", s)
		}
	}
}

// TestSampleModDeterministicSinkOnly checks the sampling contract:
// the kept set depends only on span content (byte-deterministic across
// runs), descendants inherit their root's verdict, pinned spans are
// always kept, and listeners still see every span.
func TestSampleModDeterministicSinkOnly(t *testing.T) {
	run := func() (kept []string, ended int, total int) {
		clk := &fakeClock{}
		c := New(clk)
		sink := &captureSink{}
		c.SetSink(sink)
		c.SetSampleMod(2)
		c.OnSpanEnd(func(Span) { ended++ })
		worker := c.StartSpan("htex", "worker", "w9", 0)
		c.PinSpan(worker)
		for i := 0; i < 8; i++ {
			track := "task-" + string(rune('a'+i))
			root := c.StartSpan("dfk", "task", track, 0)
			child := c.StartSpan("htex", "run", "w0", root)
			clk.t += time.Millisecond
			c.EndSpan(child)
			c.EndSpan(root)
		}
		c.Close()
		for _, s := range sink.spans {
			kept = append(kept, s.Track+"/"+s.Name)
		}
		return kept, ended, c.Len()
	}
	k1, ended, total := run()
	k2, _, _ := run()
	if len(k1) == 0 || len(k1) >= total {
		t.Fatalf("sampling kept %d of %d spans — want a proper nonempty subset", len(k1), total)
	}
	if ended != 16 {
		t.Errorf("listeners saw %d ends, want all 16 (sampling must not affect listeners)", ended)
	}
	if len(k1) != len(k2) {
		t.Fatalf("sampling not deterministic: %d vs %d kept", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("sampling not deterministic at %d: %q vs %q", i, k1[i], k2[i])
		}
	}
	// Whole causal trees: a kept root's child is kept, a dropped root's
	// child is dropped — so kept run spans equal kept task spans, and the
	// pinned worker is always present.
	var tasks, runs, workers int
	for _, k := range k1 {
		switch {
		case k == "w9/worker":
			workers++
		case k[len(k)-4:] == "task":
			tasks++
		default:
			runs++
		}
	}
	if workers != 1 {
		t.Errorf("pinned worker kept %d times, want 1", workers)
	}
	if tasks != runs {
		t.Errorf("kept %d task roots but %d run children — trees must sample atomically", tasks, runs)
	}
}
