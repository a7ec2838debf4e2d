package obs

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestPrometheusCustomInfBucket: registering explicit +Inf (and NaN)
// bounds must not render a duplicate le="+Inf" line — the implicit
// +Inf bucket is always emitted exactly once, counting every sample.
func TestPrometheusCustomInfBucket(t *testing.T) {
	c := New(&fakeClock{})
	c.SetScope("s")
	h := c.Metrics().Histogram("lat", []float64{1, 10, Inf})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, `le="+Inf"`); got != 1 {
		t.Errorf("le=\"+Inf\" rendered %d times:\n%s", got, out)
	}
	for _, want := range []string{
		`lat_bucket{le="1",scope="s"} 1`,
		`lat_bucket{le="10",scope="s"} 2`,
		`lat_bucket{le="+Inf",scope="s"} 3`,
		`lat_sum{scope="s"} 105.5`,
		`lat_count{scope="s"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestPrometheusBucketNormalization: unsorted and duplicated bounds
// are sorted and deduplicated at registration, so cumulative bucket
// counts are monotonically non-decreasing in le order.
func TestPrometheusBucketNormalization(t *testing.T) {
	c := New(&fakeClock{})
	c.SetScope("s")
	h := c.Metrics().Histogram("x", []float64{10, 1, 10, 5})
	for _, v := range []float64{0.5, 3, 7, 20} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	bucketRe := regexp.MustCompile(`x_bucket\{le="([^"]+)",scope="s"\} (\d+)`)
	var les []string
	var counts []int
	for _, m := range bucketRe.FindAllStringSubmatch(out, -1) {
		les = append(les, m[1])
		n, _ := strconv.Atoi(m[2])
		counts = append(counts, n)
	}
	wantLes := []string{"1", "5", "10", "+Inf"}
	if len(les) != len(wantLes) {
		t.Fatalf("buckets = %v, want %v:\n%s", les, wantLes, out)
	}
	for i := range wantLes {
		if les[i] != wantLes[i] {
			t.Fatalf("bucket order = %v, want %v", les, wantLes)
		}
	}
	wantCounts := []int{1, 2, 3, 4}
	for i := range wantCounts {
		if counts[i] != wantCounts[i] {
			t.Errorf("cumulative counts = %v, want %v", counts, wantCounts)
		}
	}
}

// TestPrometheusHistogramLineOrder: per series the exposition must be
// bucket lines in ascending le, then +Inf, then _sum, then _count.
func TestPrometheusHistogramLineOrder(t *testing.T) {
	c := New(&fakeClock{})
	c.SetScope("s")
	c.Metrics().Histogram("h", []float64{2, 1}).Observe(1.5)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		`# TYPE h histogram`,
		`h_bucket{le="1",scope="s"} 0`,
		`h_bucket{le="2",scope="s"} 1`,
		`h_bucket{le="+Inf",scope="s"} 1`,
		`h_sum{scope="s"} 1.5`,
		`h_count{scope="s"} 1`,
	}
	// The collector pre-registers devent metrics; find our family.
	at := -1
	for i, l := range lines {
		if l == want[0] {
			at = i
			break
		}
	}
	if at < 0 || at+len(want) > len(lines) {
		t.Fatalf("family not found:\n%s", buf.String())
	}
	for i := range want {
		if lines[at+i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[at+i], want[i])
		}
	}
}

// TestPrometheusLabelEscaping: backslash, double quote, and newline in
// label values must be escaped per the text exposition format.
func TestPrometheusLabelEscaping(t *testing.T) {
	c := New(&fakeClock{})
	c.SetScope("s")
	c.Metrics().Counter("c", L("k", "a\\b\"c\nd")).Inc()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	want := `c{k="a\\b\"c\nd",scope="s"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("missing %q in:\n%s", want, buf.String())
	}
}

// TestChromeTraceNesting: a child span on its parent's track must be
// fully nested inside the parent's [ts, ts+dur] window, carry the
// parent's id in args, and produce no flow events (same track).
func TestChromeTraceNesting(t *testing.T) {
	trace := traceOf(t, "s", func(clk *fakeClock, c *Collector) {
		parent := c.StartSpan("htex", "run", "w0", 0)
		clk.t = time.Second
		child := c.StartSpan("htex", "step", "w0", parent)
		clk.t = 2 * time.Second
		c.EndSpan(child)
		clk.t = 3 * time.Second
		c.EndSpan(parent)
	})
	events := decodeTrace(t, trace)
	var p, ch *traceEvent
	for i := range events {
		e := &events[i]
		if e.Ph != "X" {
			if e.Ph == "s" || e.Ph == "f" {
				t.Errorf("same-track child emitted flow event: %+v", e)
			}
			continue
		}
		switch e.Name {
		case "run":
			p = e
		case "step":
			ch = e
		}
	}
	if p == nil || ch == nil {
		t.Fatalf("missing events in %s", trace)
	}
	if p.Tid != ch.Tid {
		t.Errorf("parent tid %d != child tid %d", p.Tid, ch.Tid)
	}
	if ch.Ts < p.Ts || ch.Ts+ch.Dur > p.Ts+p.Dur {
		t.Errorf("child [%v,%v] not nested in parent [%v,%v]",
			ch.Ts, ch.Ts+ch.Dur, p.Ts, p.Ts+p.Dur)
	}
	if ch.arg("parent") != p.arg("id") {
		t.Errorf("child parent arg %q != parent id %q", ch.arg("parent"), p.arg("id"))
	}
}

// TestChromeTraceCrossEnvMerge: merging collectors assigns each a
// distinct pid by section order, keeps span ids process-local, and
// emits every collector's events contiguously in section order — also
// when the sections render concurrently into buffers and are spliced
// with Append, the sharded-run merge path.
func TestChromeTraceCrossEnvMerge(t *testing.T) {
	fill := func(start time.Duration) func(*fakeClock, *Collector) {
		return func(_ *fakeClock, c *Collector) {
			task := c.AddSpan("dfk", "task", "lane", 0, start, start+time.Second)
			c.AddSpan("htex", "run", "w", task, start, start+time.Second)
		}
	}
	var buf bytes.Buffer
	ts := NewTraceStream(&buf)
	recordSection(ts, "alpha", fill(0))
	recordSection(ts, "beta", fill(5*time.Second))
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	lastPid := 0
	for _, e := range events {
		if e.Pid < lastPid {
			t.Fatalf("pid %d after pid %d: collectors interleaved", e.Pid, lastPid)
		}
		lastPid = e.Pid
	}
	names := map[int]string{}
	spans := map[int]int{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.Pid] = e.arg("name")
		}
		if e.Ph == "X" {
			spans[e.Pid]++
		}
	}
	if names[1] != "alpha" || names[2] != "beta" {
		t.Errorf("process names = %v", names)
	}
	if spans[1] != 2 || spans[2] != 2 {
		t.Errorf("spans per pid = %v", spans)
	}

	// The spliced artifact is byte-identical to the live one.
	var secs [2]bytes.Buffer
	for i, scope := range []string{"alpha", "beta"} {
		c := New(&fakeClock{})
		c.SetScope(scope)
		c.SetSink(NewTraceSection(&secs[i], i+1, scope))
		fill(time.Duration(i)*5*time.Second)(nil, c)
		c.Close()
	}
	var buf2 bytes.Buffer
	ts2 := NewTraceStream(&buf2)
	for i := range secs {
		if err := ts2.Append(&secs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts2.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("spliced trace not byte-identical to the live one")
	}
}

// TestCheckClosed: open spans are reported in start order; a fully
// drained collector reports none.
func TestCheckClosed(t *testing.T) {
	clk := &fakeClock{}
	c := New(clk)
	a := c.StartSpan("htex", "worker", "w0", 0)
	clk.t = time.Second
	b := c.StartSpan("dfk", "task", "lane", 0)
	if got := c.CheckClosed(); len(got) != 2 || got[0].ID != a || got[1].ID != b {
		t.Fatalf("open spans = %+v", got)
	}
	c.EndSpan(b)
	if got := c.CheckClosed(); len(got) != 1 || got[0].ID != a {
		t.Fatalf("after closing one: %+v", got)
	}
	c.EndSpan(a)
	if got := c.CheckClosed(); got != nil {
		t.Fatalf("after closing all: %+v", got)
	}
	var nilC *Collector
	if nilC.CheckClosed() != nil {
		t.Error("nil collector should report no open spans")
	}
}

// TestPrometheusLint runs the exported exposition lint over a full
// export with counters, gauges, labelled histograms, and
// escape-needing label values — the same checker the live HTTP
// server's /metrics tests use.
func TestPrometheusLint(t *testing.T) {
	c := New(&fakeClock{})
	c.SetScope("lint/scope")
	m := c.Metrics()
	m.Counter("events_total", L("kind", `quo"te`)).Add(3)
	m.Counter("events_total", L("kind", "plain")).Inc()
	m.Gauge("depth", L("q", "a\nb")).Set(2.5)
	h := m.Histogram("lat_seconds", []float64{0.1, 1, 10}, L("app", "x"))
	h.Observe(0.05)
	h.Observe(5)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("lint: %v\n%s", err, buf.String())
	}
}

// TestPrometheusLintRejects feeds the lint malformed expositions to
// make sure it is not vacuously green.
func TestPrometheusLintRejects(t *testing.T) {
	for name, text := range map[string]string{
		"sample before header": "x_total{} 1\n",
		"unsorted families":    "# TYPE b counter\nb 1\n# TYPE a counter\na 1\n",
		"duplicate inf": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 1` + "\n" + `h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n",
		"descending bounds": "# TYPE h histogram\n" +
			`h_bucket{le="5"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"bad quoting": "# TYPE c counter\n" + `c{k="v} 1` + "\n",
	} {
		if err := LintPrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted malformed exposition:\n%s", name, text)
		}
	}
}
