package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
)

// memProfileRate is the allocation sampling interval of a traced
// batch: fine enough that a layer allocating a few MB per batch gets
// hundreds of samples.
const memProfileRate = 32 << 10

const mib = 1 << 20

// setupReps is how many times a batch process sets its workload up.
const setupReps = 11

// batchRecord is what one batch process reports to its parent.
type batchRecord struct {
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	Ops       int     `json:"ops"`
	Mallocs   uint64  `json:"mallocs"`
	AllocB    uint64  `json:"alloc_bytes"`
	GCCycles  uint32  `json:"gc_cycles"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	Digest  string             `json:"digest"`
	Summary []string           `json:"summary"`
	Check   string             `json:"check,omitempty"`
	Counts  map[string]float64 `json:"counts"`
	// ModelErrPct is set by the partition workload only.
	ModelErrPct *float64 `json:"model_err_pct,omitempty"`
	Spans       []span   `json:"spans"`

	// Traced batches only: CPU seconds and allocated bytes per layer,
	// and the CPU sample count behind them.
	CPU        map[string]float64 `json:"cpu_by_layer,omitempty"`
	AllocBytes map[string]float64 `json:"alloc_bytes_by_layer,omitempty"`
	Samples    int                `json:"cpu_samples,omitempty"`
}

// runBatch sets a workload up from the seed and runs one batch of it
// in this process. Every batch gets a fresh process: the simulator
// leaves each finished Env's parked daemon goroutines behind, and with
// them the whole simulation, so batches sharing a heap would measure
// a heap that grows batch by batch.
func runBatch(name string, seed int64, parallel int, traced bool) (*batchRecord, error) {
	setup, ok := setups[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if traced {
		runtime.MemProfileRate = memProfileRate
	}
	runtime.GOMAXPROCS(min(parallel, runtime.NumCPU()))
	harness.SetParallelism(parallel)
	tr := newTracer()

	// Set up several times and keep the median: one setup takes well
	// under a millisecond on most workloads, where a single page fault
	// shows.
	var w workload
	setupTimes := make([]float64, setupReps)
	for i := range setupTimes {
		t0 := time.Now()
		end := tr.begin("setup", "")
		var err error
		w, err = setup(seed, tr)
		end()
		setupTimes[i] = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
	}
	_, setupS, _ := quartiles(setupTimes)

	// Start the timed call from a collected heap.
	runtime.GC()
	var memBefore []runtime.MemProfileRecord
	var cpu bytes.Buffer
	if traced {
		memBefore = memProfile()
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	end := tr.begin("batch", "")
	render, err := w.run(tr)
	end()
	wall := time.Since(t1).Seconds()
	cpu1, cpuErr := cpuSeconds()
	runtime.ReadMemStats(&after)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, fmt.Errorf("%s batch: %w", name, err)
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	out := render()

	rec := &batchRecord{
		SetupS: setupS, WallS: wall, CPUS: cpu1 - cpu0, Ops: out.ops,
		Mallocs:  after.Mallocs - before.Mallocs,
		AllocB:   after.TotalAlloc - before.TotalAlloc,
		GCCycles: after.NumGC - before.NumGC,
		Digest:   out.digest(), Summary: out.summary,
		Counts: out.counts, Spans: tr.spans,
	}
	if out.check != nil {
		rec.Check = out.check.Error()
	}
	if out.modelErrPct == out.modelErrPct { // not NaN
		v := out.modelErrPct
		rec.ModelErrPct = &v
	}
	if traced {
		if rec.CPU, rec.Samples, err = cpuByLayer(cpu.Bytes()); err != nil {
			return nil, err
		}
		rec.AllocBytes = allocByLayer(memBefore, memProfile(), memProfileRate)
	}
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	return rec, nil
}

// peakRSSMB returns this process's resident-set high-water mark in
// MiB. getrusage's ru_maxrss will not do: a process started by os/exec
// inherits its parent's high-water mark at exec.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v) // "<n> kB"
			if len(f) != 2 {
				return 0, fmt.Errorf("peak rss: malformed %q", line)
			}
			kib, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %q: %w", line, err)
			}
			return kib * 1024 / mib, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}

// memProfile returns the current allocation profile. The runtime
// publishes a sample only some GC cycles after it was taken, so
// collect a few times first.
func memProfile() []runtime.MemProfileRecord {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// cpuSeconds returns the user and system CPU time this process has used.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}
