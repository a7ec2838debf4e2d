package report

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs/tsdb"
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
// repeated parallel runs, and with span sinks attached (every reported
// line is virtual, so neither scheduling nor span export may leak in).
func TestFleetDeterminism(t *testing.T) {
	render := func(workers int, tee bool) []byte {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		var b bytes.Buffer
		opts := fleetTestOptions()
		if tee {
			opts.WrapSink = nopWrap[string]
		}
		if err := Fleet(&b, opts); err != nil {
			t.Fatalf("Fleet with %d workers (tee=%v): %v", workers, tee, err)
		}
		return b.Bytes()
	}
	seq := render(1, false)
	if len(seq) == 0 {
		t.Fatal("sequential fleet artifact is empty")
	}
	par := render(4, false)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel output differs from sequential:\n%s", firstDiff(seq, par))
	}
	par2 := render(4, false)
	if !bytes.Equal(par, par2) {
		t.Fatalf("repeated parallel runs differ:\n%s", firstDiff(par, par2))
	}
	str := render(4, true)
	if !bytes.Equal(seq, str) {
		t.Fatalf("output with span sinks attached differs:\n%s", firstDiff(seq, str))
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
// cell gets its own series store, labeled by cell.
func TestFleetTelemetryHooks(t *testing.T) {
	var b bytes.Buffer
	opts := fleetTestOptions()
	// OnCellDB runs concurrently from the cells' harness workers.
	var mu sync.Mutex
	seen := make(map[string]*tsdb.DB)
	opts.Telemetry = &FleetTelemetry{
		TSDB: &tsdb.Config{},
		OnCellDB: func(load string, db *tsdb.DB) {
			mu.Lock()
			seen[load] = db
			mu.Unlock()
		},
	}
	if err := Fleet(&b, opts); err != nil {
		t.Fatal(err)
	}
	for _, m := range fleetLoads {
		label := fleetLoadLabel(m)
		db := seen[label]
		if db == nil {
			t.Fatalf("cell %s never attached a series store (got %v)", label, seen)
		}
		if len(db.List()) == 0 {
			t.Errorf("cell %s store scraped no series", label)
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
