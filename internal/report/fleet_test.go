package report

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs/live"
)

// fleetTestOptions is a small-but-real grid cell basis: enough GPUs
// and apps to exercise MIG shares, whole-GPU MPS fallback, rejections,
// and rebalancing, while staying fast enough to render three times.
func fleetTestOptions() FleetOptions {
	return FleetOptions{
		GPUs80: 10, GPUs40: 10, Apps: 16,
		Duration: 2 * time.Minute, Seed: 3,
	}
}

// TestFleetDeterminism is the fleet artifact's regression contract:
// the rendering is byte-identical at -parallel 1 and 4, across
// repeated parallel runs, and with the live plane attached (every
// reported line is virtual, so neither scheduling nor span export may
// leak in). The live plane turns each cell's series store on, whose
// scrapes count as events, so that run is held against a run whose
// -alerts output forces the same stores on without any span tail.
func TestFleetDeterminism(t *testing.T) {
	render := func(workers int, set func(*FleetOptions)) []byte {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		var b bytes.Buffer
		opts := fleetTestOptions()
		if set != nil {
			set(&opts)
		}
		if err := Fleet(&b, opts); err != nil {
			t.Fatalf("Fleet with %d workers: %v", workers, err)
		}
		return b.Bytes()
	}
	seq := render(1, nil)
	if len(seq) == 0 {
		t.Fatal("sequential fleet artifact is empty")
	}
	par := render(4, nil)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel output differs from sequential:\n%s", firstDiff(seq, par))
	}
	par2 := render(4, nil)
	if !bytes.Equal(par, par2) {
		t.Fatalf("repeated parallel runs differ:\n%s", firstDiff(par, par2))
	}
	stores := render(1, func(o *FleetOptions) { o.Alerts = io.Discard })
	served := render(4, func(o *FleetOptions) { o.Live = live.NewServer() })
	if !bytes.Equal(stores, served) {
		t.Fatalf("output with the live plane attached differs:\n%s", firstDiff(stores, served))
	}
}

// TestFleetArtifactShape pins the artifact's line vocabulary: one
// config echo per load cell, admission and class lines, at least two
// fragmentation samples, and the rebalance ledger.
func TestFleetArtifactShape(t *testing.T) {
	var b bytes.Buffer
	if err := Fleet(&b, fleetTestOptions()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Fleet-scale placement",
		"config: load=0.5x", "config: load=1.0x", "config: load=1.5x",
		"virtual: arrivals=", "virtual: class small",
		"virtual: class oversize", "virtual: frag t=",
		"virtual: rebalances=", "virtual: peak_tenants=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("artifact is missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "virtual: frag t="); n < 6 {
		t.Errorf("only %d fragmentation samples across 3 cells", n)
	}
	if strings.Contains(out, "wall:") {
		t.Error("fleet artifact must stay purely virtual (no wall lines)")
	}
}

// TestFleetTelemetryHooks checks the live-plane wiring: each load
// cell attaches its own series store and span tail, scoped by cell.
func TestFleetTelemetryHooks(t *testing.T) {
	opts := fleetTestOptions()
	opts.Live = live.NewServer()
	if err := Fleet(io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	var scopes []string
	for _, m := range fleetLoads {
		scopes = append(scopes, "fleet/"+fleetLoadLabel(m))
	}
	checkLiveScopes(t, opts.Live, scopes)
}

// checkLiveScopes checks through srv's HTTP API that exactly the
// given scopes attached, in order, each with a scraped series store
// and a span tail.
func checkLiveScopes(t *testing.T, srv *live.Server, want []string) {
	t.Helper()
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	var got []struct {
		Scope   string `json:"scope"`
		Series  int    `json:"series"`
		Scrapes int64  `json:"scrapes"`
	}
	if err := json.Unmarshal(get("/api/scopes").Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("attached scopes %+v, want %q", got, want)
	}
	for i, sc := range got {
		if sc.Scope != want[i] || sc.Series == 0 || sc.Scrapes == 0 {
			t.Errorf("scope %d = %+v, want %s with scraped series", i, sc, want[i])
		}
		if rec := get("/spans?scope=" + want[i]); rec.Code != http.StatusOK {
			t.Errorf("scope %s has no span tail: %d %s", want[i], rec.Code, rec.Body)
		}
	}
}

// TestFleetGolden pins the fleet artifact across commits: the grid
// `paperbench fleet -gpus80 16 -gpus40 16 -apps 24 -horizon 3m` renders
// must match testdata/fleet_golden.txt byte for byte. Packer
// optimisations must leave every placement, rebalance decision and
// fragmentation value unchanged, so this file never needs regenerating
// for a pure speed change.
func TestFleetGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fleet_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	opts := FleetOptions{GPUs80: 16, GPUs40: 16, Apps: 24, Duration: 3 * time.Minute}
	if err := Fleet(&b, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("fleet artifact differs from testdata/fleet_golden.txt:\n%s", firstDiff(want, b.Bytes()))
	}
}
