package analyze

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
)

// liveRun drives one synthetic "live" instrumentation sequence against
// the collector: spans are opened and closed in the order a real
// platform run produces them (children complete before their task
// ends, device activity is recorded retroactively while the run span
// is open). Calling it twice with fresh collectors yields identical
// streams, so snapshot and streaming analysis can be compared across
// two runs.
func liveRun(c *obs.Collector, clk *tickClock) {
	// Two workers with init windows; worker spans stay open (daemons).
	w0 := c.StartSpan("htex", "worker", "w0", 0, obs.String("executor", "ex"))
	c.PinSpan(w0)
	w1 := c.StartSpan("htex", "worker", "w1", 0, obs.String("executor", "ex"))
	c.PinSpan(w1)
	c.AddSpan("htex", "init", "w0", w0, 0, 40*ms)

	// Task 1 on w0: queue overlapping init, run with device activity.
	clk.now = 10 * ms
	t1 := c.StartSpan("dfk", "task", "task/1", 0,
		obs.Int("task", 1), obs.String("app", "llama"),
		obs.String("executor", "ex"))
	q1 := c.StartSpan("htex", "queue", "task/1", t1)
	clk.now = 60 * ms
	c.EndSpan(q1, obs.String("worker", "w0"))
	r1 := c.StartSpan("htex", "run", "w0", t1, obs.Int("gpu_pct", 40))
	c.AddSpan("htex", "ctxinit", "w0", r1, 60*ms, 70*ms)
	c.AddSpan("simgpu", "xfer", "ctx", r1, 70*ms, 100*ms, obs.String("tag", "weights"))
	clk.now = 190 * ms
	c.AddSpan("simgpu", "decode", "ctx", r1, 140*ms, 190*ms, obs.Dur("queue_ns", 30*ms))
	clk.now = 200 * ms
	c.EndSpan(r1)
	c.EndSpan(t1, obs.String("status", "done"))

	// Task 2 queued on w0 while task 1's run blocked it: queue time is
	// critical-path-reattributed along task 1's run phases.
	clk.now = 220 * ms
	t2 := c.StartSpan("dfk", "task", "task/2", 0,
		obs.Int("task", 2), obs.String("app", "llama"),
		obs.String("executor", "ex"))
	q2 := c.StartSpan("htex", "queue", "task/2", t2)
	clk.now = 240 * ms
	c.EndSpan(q2, obs.String("worker", "w0"))
	r2 := c.StartSpan("htex", "run", "w0", t2)
	clk.now = 300 * ms
	c.EndSpan(r2)
	c.EndSpan(t2, obs.String("status", "done"))

	// An executor restart window overlapping task 3's completion: the
	// task ends mid-restart, so streaming attribution must defer it
	// until the restart span exists.
	clk.now = 310 * ms
	t3 := c.StartSpan("dfk", "task", "task/3", 0,
		obs.Int("task", 3), obs.String("app", "bert"),
		obs.String("executor", "ex"))
	rs := c.StartSpan("htex", "restart", "ex", 0, obs.String("executor", "ex"))
	clk.now = 330 * ms
	c.EndSpan(t3, obs.String("status", "failed"))
	clk.now = 350 * ms
	c.EndSpan(rs)

	// Task 4 ends while a restart window is still open at Finish time.
	clk.now = 360 * ms
	t4 := c.StartSpan("dfk", "task", "task/4", 0,
		obs.Int("task", 4), obs.String("app", "bert"),
		obs.String("executor", "ex"))
	rs2 := c.StartSpan("htex", "restart", "ex", 0, obs.String("executor", "ex"))
	clk.now = 380 * ms
	c.EndSpan(t4, obs.String("status", "failed"))
	clk.now = 400 * ms
	_ = rs2 // left open: Finish must clamp it, like a snapshot would
}

// TestStreamerMatchesSnapshot locks the streaming contract: the
// Report for the live sequence equals testdata/live_report.json,
// captured from the retired snapshot analyzer — including the
// deferred-restart task and the task that ends while a restart window
// is still open at Finish.
func TestStreamerMatchesSnapshot(t *testing.T) {
	want, err := os.ReadFile("testdata/live_report.json")
	if err != nil {
		t.Fatal(err)
	}
	clk := &tickClock{}
	c := obs.New(clk)
	st := NewStreamer(c)
	liveRun(c, clk)
	c.SetScope("cell") // scopes are assigned after the run, like report does
	got := BuildReport(st)
	var gb bytes.Buffer
	if err := got.WriteJSON(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), want) {
		t.Fatalf("streamed report differs from golden:\ngolden: %s\nstreamed: %s", want, gb.Bytes())
	}
	if len(got.Tasks) != 4 {
		t.Fatalf("want 4 tasks, got %d", len(got.Tasks))
	}
}

// TestStreamerAttributesOpenTasksClamped: a task still open at Finish
// is attributed with its end clamped to the current virtual time,
// together with its still-open queue wait, so the phases still sum to
// the clamped duration.
func TestStreamerAttributesOpenTasksClamped(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)
	c.SetScope("open")
	st := NewStreamer(c)
	clk.now = 10 * ms
	task := c.StartSpan("dfk", "task", "task/1", 0,
		obs.Int("task", 1), obs.String("app", "llama"), obs.String("executor", "ex"))
	c.StartSpan("htex", "queue", "task/1", task)
	clk.now = 70 * ms
	rep := BuildReport(st)
	if len(rep.Tasks) != 1 {
		t.Fatalf("want the open task attributed, got %d tasks", len(rep.Tasks))
	}
	ta := rep.Tasks[0]
	if ta.StartNS != int64(10*ms) || ta.EndNS != int64(70*ms) || ta.Scope != "open" {
		t.Fatalf("open task attributed as %+v", ta)
	}
	if ta.Phases[PhaseQueue] != 60*ms || ta.Phases.Total() != ta.Duration() {
		t.Fatalf("open task phases = %+v", ta.Phases)
	}
}

// TestStreamerEviction drives enough short tasks through a streamer to
// trigger several eviction sweeps and checks that evidence retention
// stays bounded while attributions remain exact.
func TestStreamerEviction(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)
	c.SetScope("evict")
	st := NewStreamer(c)

	const n = 3 * sweepEvery
	for i := 0; i < n; i++ {
		base := time.Duration(i) * ms
		clk.now = base
		tid := c.StartSpan("dfk", "task", "task", 0,
			obs.Int("task", i), obs.String("app", "micro"),
			obs.String("executor", "cpu"))
		q := c.StartSpan("htex", "queue", "task", tid)
		clk.now = base + 100*time.Microsecond
		c.EndSpan(q, obs.String("worker", "w0"))
		r := c.StartSpan("htex", "run", "w0", tid)
		clk.now = base + 900*time.Microsecond
		c.EndSpan(r)
		c.EndSpan(tid, obs.String("status", "done"))
	}
	rep := BuildReport(st)
	if len(rep.Tasks) != n {
		t.Fatalf("want %d tasks, got %d", n, len(rep.Tasks))
	}
	for i := range rep.Tasks {
		if got, want := rep.Tasks[i].Phases.Total(), rep.Tasks[i].Duration(); got != want {
			t.Fatalf("task %d: phases sum %v != duration %v", i, got, want)
		}
	}
	// After the final sweep-sized batch, retained run evidence must be
	// a small fraction of the total: eviction works.
	if got := len(st.a.runsByTrack["w0"]); got > sweepEvery+8 {
		t.Fatalf("run evidence not evicted: %d retained", got)
	}
}
