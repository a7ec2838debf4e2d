package moldesign

import (
	"testing"
	"time"

	"repro/internal/colmena"
	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/htex"
	"repro/internal/faas/provider"
	"repro/internal/gpuctl"
	"repro/internal/simgpu"
	"repro/internal/trace"
)

// campaignRig is the paper's testbed in miniature: a 24-core node with
// GPUs, a cpu executor with 16 workers, and a gpu executor.
func campaignRig(t *testing.T, cfg Config) (*devent.Env, *Campaign, *trace.Log, *simgpu.Device) {
	t.Helper()
	env := devent.NewEnv()
	dev, err := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM440GB())
	if err != nil {
		t.Fatal(err)
	}
	node := gpuctl.NewNode(env, dev)
	local := provider.NewLocal(env, node)
	cpu, err := htex.New(env, htex.Config{Label: "cpu", MaxWorkers: 16, Provider: local})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := htex.New(env, htex.Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0"},
		Provider:              local,
	})
	if err != nil {
		t.Fatal(err)
	}
	dfk := faas.NewDFK(env, faas.Config{Retries: 1}, cpu, gpu)
	if err := dfk.Start(); err != nil {
		t.Fatal(err)
	}
	ts := colmena.NewTaskServer(dfk, colmena.NewQueues(env))
	log := &trace.Log{}
	return env, New(cfg, ts, "cpu", "gpu", log), log, dev
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.InitialPool = 16
	cfg.CandidatePool = 1000
	cfg.BatchSize = 8
	cfg.Rounds = 3
	return cfg
}

func TestCampaignActiveLearningBeatsRandom(t *testing.T) {
	env, c, _, _ := campaignRig(t, smallConfig())
	var rep *Report
	env.Spawn("thinker", func(p *devent.Proc) {
		r, err := c.Run(p)
		if err != nil {
			t.Error(err)
			return
		}
		rep = r
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Dataset != 16+3*8 {
		t.Fatalf("dataset = %d", rep.Dataset)
	}
	// Selection quality: every round's selected batch should have a
	// much higher mean IP than the pool average.
	for i, mean := range rep.RoundBatchMeanIP {
		if mean <= rep.PoolMeanIP+0.3 {
			t.Errorf("round %d batch mean %.3f not above pool mean %.3f", i, mean, rep.PoolMeanIP)
		}
	}
	if rep.BestIP < rep.InitialBestIP {
		t.Errorf("best %.3f below initial %.3f", rep.BestIP, rep.InitialBestIP)
	}
	if rep.FinalRMSE > 0.25 {
		t.Errorf("emulator RMSE = %.3f", rep.FinalRMSE)
	}
	if rep.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

// Fig. 3's observation: the trace shows all three phases, and the GPU
// has substantial idle time while simulations run.
func TestCampaignTraceShowsPhasesAndGPUIdle(t *testing.T) {
	env, c, log, dev := campaignRig(t, smallConfig())
	var makespan time.Duration
	env.Spawn("thinker", func(p *devent.Proc) {
		if _, err := c.Run(p); err != nil {
			t.Error(err)
			return
		}
		makespan = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, k := range log.Kinds() {
		kinds[k] = true
	}
	for _, k := range []string{"simulation", "training", "inference"} {
		if !kinds[k] {
			t.Errorf("missing %s spans", k)
		}
	}
	gpuSpans := append(log.OfKind("training"), log.OfKind("inference")...)
	busy := trace.BusyFraction(gpuSpans, 0, makespan)
	if busy > 0.5 {
		t.Errorf("GPU busy fraction %.2f — expected large idle gaps", busy)
	}
	if busy <= 0 {
		t.Error("GPU never busy")
	}
	// Device-level accounting agrees that the GPU is mostly idle.
	if u := dev.Utilization(0, makespan); u > 0.5 {
		t.Errorf("device utilization %.2f", u)
	}
	// There are real gaps between GPU bursts (the "white lines" of
	// Fig. 3).
	gaps := trace.Gaps(gpuSpans, 0, makespan)
	if len(gaps) < 3 {
		t.Errorf("only %d GPU idle gaps", len(gaps))
	}
}

func TestCampaignDeterminism(t *testing.T) {
	runOnce := func() (float64, time.Duration) {
		env, c, _, _ := campaignRig(t, smallConfig())
		var best float64
		var mk time.Duration
		env.Spawn("thinker", func(p *devent.Proc) {
			rep, err := c.Run(p)
			if err != nil {
				t.Error(err)
				return
			}
			best, mk = rep.BestIP, rep.Makespan
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return best, mk
	}
	b1, m1 := runOnce()
	b2, m2 := runOnce()
	if b1 != b2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", b1, m1, b2, m2)
	}
}

func TestCampaignSimulationsRunInParallel(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 1
	env, c, log, _ := campaignRig(t, cfg)
	env.Spawn("thinker", func(p *devent.Proc) {
		if _, err := c.Run(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	sims := log.OfKind("simulation")
	// 16 initial sims over 16 workers: the union coverage must be far
	// less than the summed durations (i.e., they overlapped).
	var sum time.Duration
	for _, s := range sims {
		sum += s.Duration()
	}
	var busy time.Duration
	for _, iv := range trace.Union(sims) {
		busy += iv.Duration()
	}
	if busy >= sum/2 {
		t.Fatalf("simulations barely overlapped: busy=%v sum=%v", busy, sum)
	}
}

// The paper's Fig.-3 remark: pipelining the campaign raises
// accelerator utilization and shortens the makespan, at the same
// simulation budget.
func TestPipelinedCampaignOverlapsAndSpeedsUp(t *testing.T) {
	cfg := smallConfig()

	runMode := func(pipelined bool) (*Report, *trace.Log) {
		env, c, log, _ := campaignRig(t, cfg)
		var rep *Report
		env.Spawn("thinker", func(p *devent.Proc) {
			var err error
			if pipelined {
				rep, err = c.RunPipelined(p)
			} else {
				rep, err = c.Run(p)
			}
			if err != nil {
				t.Error(err)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return rep, log
	}

	sync, _ := runMode(false)
	async, asyncLog := runMode(true)

	if async.Dataset != sync.Dataset {
		t.Fatalf("budgets differ: sync=%d async=%d", sync.Dataset, async.Dataset)
	}
	if async.Makespan >= sync.Makespan {
		t.Errorf("pipelined %v not faster than synchronous %v", async.Makespan, sync.Makespan)
	}
	// GPU work overlaps simulations: some instant has both kinds
	// active.
	gpu := trace.Union(append(asyncLog.OfKind("training"), asyncLog.OfKind("inference")...))
	sims := trace.Union(asyncLog.OfKind("simulation"))
	overlap := false
	for _, g := range gpu {
		for _, s := range sims {
			if g.Start < s.End && s.Start < g.End {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Error("no GPU/simulation overlap in the pipelined campaign")
	}
	// Selection quality is retained.
	for i, m := range async.RoundBatchMeanIP {
		if m <= async.PoolMeanIP {
			t.Errorf("pipelined batch %d mean %.3f not above pool mean %.3f", i, m, async.PoolMeanIP)
		}
	}
}

func TestPipelinedDeterminism(t *testing.T) {
	cfg := smallConfig()
	run := func() (float64, time.Duration) {
		env, c, _, _ := campaignRig(t, cfg)
		var best float64
		var mk time.Duration
		env.Spawn("thinker", func(p *devent.Proc) {
			rep, err := c.RunPipelined(p)
			if err != nil {
				t.Error(err)
				return
			}
			best, mk = rep.BestIP, rep.Makespan
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return best, mk
	}
	b1, m1 := run()
	b2, m2 := run()
	if b1 != b2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", b1, m1, b2, m2)
	}
}

// The control arm: greedy emulator-guided selection finds much better
// molecules than random selection at the same simulation budget.
func TestGreedySelectionBeatsRandomControl(t *testing.T) {
	run := func(random bool) float64 {
		cfg := smallConfig()
		cfg.RandomSelection = random
		env, c, _, _ := campaignRig(t, cfg)
		var mean float64
		env.Spawn("thinker", func(p *devent.Proc) {
			rep, err := c.Run(p)
			if err != nil {
				t.Error(err)
				return
			}
			var sum float64
			for _, m := range rep.RoundBatchMeanIP {
				sum += m
			}
			mean = sum / float64(len(rep.RoundBatchMeanIP))
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return mean
	}
	greedy := run(false)
	random := run(true)
	if greedy < random+0.5 {
		t.Fatalf("greedy %.3f not clearly above random %.3f", greedy, random)
	}
}

// TestConfigValidate checks that every campaign that cannot run is
// rejected with an error naming the offending field, and that the
// smallest runnable sizes pass.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		set   func(*Config)
		field string // "" = valid
	}{
		{"default", func(*Config) {}, ""},
		{"smallest", func(c *Config) { c.InitialPool, c.BatchSize, c.CandidatePool, c.Rounds = 1, 1, 1, 0 }, ""},
		{"pool equals batch", func(c *Config) { c.CandidatePool = c.BatchSize }, ""},
		{"no initial pool", func(c *Config) { c.InitialPool = 0 }, "InitialPool"},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }, "BatchSize"},
		{"empty candidate pool", func(c *Config) { c.CandidatePool = 0 }, "CandidatePool"},
		{"pool below batch", func(c *Config) { c.CandidatePool = c.BatchSize - 1 }, "CandidatePool"},
		{"negative rounds", func(c *Config) { c.Rounds = -1 }, "Rounds"},
		{"zero infer chunk", func(c *Config) { c.InferChunk = 0 }, "InferChunk"},
		{"negative epochs", func(c *Config) { c.TrainEpochs = -1 }, "TrainEpochs"},
		{"negative sim cost", func(c *Config) { c.SimSpread = -time.Second }, "SimBase"},
		{"negative lambda", func(c *Config) { c.Lambda = -0.1 }, "Lambda"},
	} {
		cfg := DefaultConfig()
		tc.set(&cfg)
		err := cfg.Validate()
		if tc.field == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		ce, ok := err.(*ConfigError)
		if !ok || ce.Field != tc.field {
			t.Errorf("%s: err = %v, want a ConfigError for %s", tc.name, err, tc.field)
		}
	}
}
