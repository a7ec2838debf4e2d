package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// traceEvent mirrors the Chrome trace-event fields the tests check.
type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Cat  string         `json:"cat"`
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

// arg renders an args value (span ids are numbers, attrs strings).
func (e traceEvent) arg(k string) string {
	switch v := e.Args[k].(type) {
	case string:
		return v
	case float64:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return ""
}

func decodeTrace(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	out := make([]traceEvent, len(doc.TraceEvents))
	for i, raw := range doc.TraceEvents {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	return out
}

// traceOf records fill on a fresh collector named scope whose spans
// stream into a one-section trace artifact, closes it, and returns the
// artifact.
func traceOf(t *testing.T, scope string, fill func(*fakeClock, *Collector)) []byte {
	t.Helper()
	var buf bytes.Buffer
	ts := NewTraceStream(&buf)
	recordSection(ts, scope, fill)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordSection records fill on a fresh collector streaming into the
// next section of ts, then closes the collector.
func recordSection(ts *TraceStream, scope string, fill func(*fakeClock, *Collector)) *Collector {
	clk := &fakeClock{}
	c := New(clk)
	c.SetScope(scope)
	c.SetSink(ts.Section(scope))
	fill(clk, c)
	c.Close()
	return c
}

func buildSampleCollector() (*fakeClock, *Collector) {
	clk := &fakeClock{}
	c := New(clk)
	c.SetScope("cell")
	fillSample(clk, c)
	return clk, c
}

// fillSample records a task with a run and a retroactive kernel.
func fillSample(clk *fakeClock, c *Collector) {
	task := c.StartSpan("dfk", "task", "task-1", 0, Int("task", 1), String("app", "a"))
	clk.t = time.Second
	run := c.StartSpan("htex", "run", "w0", task, String("app", "a"))
	c.AddSpan("simgpu", "gemm", "ctx0", run, time.Second, 2*time.Second, Float("sms", 54))
	clk.t = 3 * time.Second
	c.EndSpan(run, String("status", "done"))
	c.EndSpan(task, String("status", "done"))
}

func TestChromeTraceSchema(t *testing.T) {
	events := decodeTrace(t, traceOf(t, "cell", fillSample))

	var completes, metas, flows int
	ids := map[string]bool{}
	for _, e := range events {
		switch e.Ph {
		case "X":
			completes++
			if e.Dur < 0 {
				t.Errorf("negative dur: %+v", e)
			}
			if e.arg("id") == "" {
				t.Errorf("complete event without id: %+v", e)
			}
			ids[e.arg("id")] = true
		case "M":
			metas++
		case "s", "f":
			flows++
		}
	}
	if completes != 3 {
		t.Errorf("complete events = %d", completes)
	}
	// process_name + one thread_name per track (task-1, w0, ctx0).
	if metas != 4 {
		t.Errorf("metadata events = %d", metas)
	}
	// run (on w0) links from task-1's track; gemm (on ctx0) links from
	// w0's track: two flow pairs.
	if flows != 4 {
		t.Errorf("flow events = %d", flows)
	}
	// Every parent reference resolves to an emitted span.
	for _, e := range events {
		if e.Ph == "X" {
			if p := e.arg("parent"); p != "" && !ids[p] {
				t.Errorf("dangling parent %s in %+v", p, e)
			}
		}
	}
}

// TestChromeTraceProcessPerCollector: each section of a trace stream
// is one process, numbered in section order; an unnamed scope renders
// as env<pid>.
func TestChromeTraceProcessPerCollector(t *testing.T) {
	var buf bytes.Buffer
	ts := NewTraceStream(&buf)
	recordSection(ts, "cell", fillSample)
	recordSection(ts, "", func(_ *fakeClock, c *Collector) {
		c.AddSpan("dfk", "task", "task-1", 0, 0, time.Second)
	})
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	names := map[int]string{}
	for _, e := range decodeTrace(t, buf.Bytes()) {
		pids[e.Pid] = true
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.Pid] = e.arg("name")
		}
	}
	if len(pids) != 2 || !pids[1] || !pids[2] {
		t.Errorf("pids = %v, want 1 and 2", pids)
	}
	if names[1] != "cell" || names[2] != "env2" {
		t.Errorf("process names = %v", names)
	}
}

func TestPrometheusExposition(t *testing.T) {
	_, c := buildSampleCollector()
	m := c.Metrics()
	m.Counter("faas_tasks_completed_total", L("app", "a"), L("status", "done")).Inc()
	m.Gauge("simgpu_domain_busy_sms", L("domain", "gpu0")).Set(54)
	m.Histogram("faas_task_run_seconds", []float64{1, 10}, L("app", "a")).Observe(2)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE faas_tasks_completed_total counter",
		`faas_tasks_completed_total{app="a",scope="cell",status="done"} 1`,
		"# TYPE simgpu_domain_busy_sms gauge",
		`simgpu_domain_busy_sms{domain="gpu0",scope="cell"} 54`,
		"# TYPE faas_task_run_seconds histogram",
		`faas_task_run_seconds_bucket{app="a",le="1",scope="cell"} 0`,
		`faas_task_run_seconds_bucket{app="a",le="10",scope="cell"} 1`,
		`faas_task_run_seconds_bucket{app="a",le="+Inf",scope="cell"} 1`,
		`faas_task_run_seconds_sum{app="a",scope="cell"} 2`,
		`faas_task_run_seconds_count{app="a",scope="cell"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusMergesCollectorsByScope(t *testing.T) {
	c1 := New(&fakeClock{})
	c1.SetScope("a")
	c1.Metrics().Counter("hits").Add(2)
	c2 := New(&fakeClock{})
	c2.Metrics().Counter("hits").Add(5) // unnamed scope -> env2
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c1, c2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE hits counter") != 1 {
		t.Errorf("family header not merged:\n%s", out)
	}
	if !strings.Contains(out, `hits{scope="a"} 2`) || !strings.Contains(out, `hits{scope="env2"} 5`) {
		t.Errorf("missing per-scope series:\n%s", out)
	}
}

func TestPrometheusKindMismatchErrors(t *testing.T) {
	c1 := New(&fakeClock{})
	c1.Metrics().Counter("x")
	c2 := New(&fakeClock{})
	c2.Metrics().Gauge("x")
	if err := WritePrometheus(&bytes.Buffer{}, c1, c2); err == nil {
		t.Fatal("kind mismatch across collectors not detected")
	}
}

func TestExportersDeterministic(t *testing.T) {
	render := func() (string, string) {
		var c *Collector
		tr := traceOf(t, "cell", func(clk *fakeClock, col *Collector) {
			c = col
			fillSample(clk, col)
		})
		m := c.Metrics()
		m.Counter("a", L("k", "v")).Inc()
		m.Gauge("b").Set(1)
		var pr bytes.Buffer
		if err := WritePrometheus(&pr, c); err != nil {
			t.Fatal(err)
		}
		return string(tr), pr.String()
	}
	t1, p1 := render()
	t2, p2 := render()
	if t1 != t2 || p1 != p2 {
		t.Fatal("exporters are not deterministic across identical inputs")
	}
}
