package devent

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcPanicKeepsRunner drives the scheduler's handoff by hand so
// the runner can be observed between bodies: a panicking body fails
// the Env, its runner survives on the idle list, the next Spawn reuses
// it, and the reused runner runs a body normally.
func TestProcPanicKeepsRunner(t *testing.T) {
	env := NewEnv()
	bad := env.Spawn("bad", func(p *Proc) { panic("boom") })
	r := bad.r
	env.handoff(bad)
	if !bad.dead || !bad.Done().Fired() {
		t.Fatal("panicking proc not recorded as exited")
	}
	if len(env.idle) != 1 || env.idle[0] != r {
		t.Fatalf("idle runners = %d, want the panicking proc's runner", len(env.idle))
	}

	ran := false
	good := env.Spawn("good", func(p *Proc) { ran = true })
	if good.r != r {
		t.Fatal("Spawn did not reuse the idle runner")
	}
	env.handoff(good)
	if !ran || !good.Done().Fired() {
		t.Fatal("body on the recycled runner did not run to completion")
	}
	if len(env.idle) != 1 || env.idle[0] != r {
		t.Fatal("recycled runner did not return to the idle list")
	}

	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "proc bad#1 panicked: boom") {
		t.Fatalf("Run = %v, want the Env.Fail error of the panic", err)
	}
	if len(env.idle) != 0 {
		t.Fatalf("%d idle runners left after Run returned", len(env.idle))
	}
}

// runnerGoroutines counts the goroutines whose stacks run a devent
// runner's loop, without the runners a race-enabled build keeps in
// raceKept, and returns the all-goroutine dump it counted from.
// Counting runners instead of runtime.NumGoroutine keeps the count
// blind to the testing package's own goroutines: on a loaded host the
// previous test's goroutine can still be exiting (runnable in
// runtime.goexit1) when the next test takes its baseline.
func runnerGoroutines() (int, string) {
	raceKept.Lock()
	defer raceKept.Unlock()
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	dump := string(buf)
	runners := 0
	for _, g := range strings.Split(dump, "\n\n") {
		if strings.Contains(g, "devent.(*runner).loop(") {
			runners++
		}
	}
	return runners - len(raceKept.runners), dump
}

// TestRunnerPoolBoundedAndReleased checks that spawn/exit churn reuses
// runners, that a burst of exits keeps at most maxIdleRunners of them,
// and that Run's return leaves one runner goroutine per parked proc
// and no more. A count mismatch reports the goroutine dumps it was
// counted from.
func TestRunnerPoolBoundedAndReleased(t *testing.T) {
	before, dumpBefore := runnerGoroutines()
	env := NewEnv()
	const parked = 3
	never := env.NewEvent()
	for i := 0; i < parked; i++ {
		env.Spawn("parked", func(p *Proc) { p.Wait(never) }).SetDaemon(true)
	}
	churnIdle, peak := -1, -1
	var dumpPeak string
	env.Spawn("spawner", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			c := env.Spawn("child", func(p *Proc) { p.Yield() })
			p.Wait(c.Done())
		}
		churnIdle = len(env.idle)
		burst := make([]*Event, 2*maxIdleRunners)
		for i := range burst {
			burst[i] = env.Spawn("burst", func(p *Proc) { p.Sleep(time.Second) }).Done()
		}
		p.Wait(AllOf(env, burst...))
		peak, dumpPeak = runnerGoroutines()
		peak -= before
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if churnIdle != 1 {
		t.Errorf("sequential churn left %d idle runners, want 1", churnIdle)
	}
	// The parked procs, the spawner, and a full idle list (race builds
	// keep the whole burst, see raceKept).
	idle := maxIdleRunners
	if raceEnabled {
		idle = 2 * maxIdleRunners
	}
	if want := parked + 1 + idle; peak != want {
		t.Errorf("runner goroutines after the burst = %d, want %d\nbefore:\n%s\nafter the burst:\n%s",
			peak, want, dumpBefore, dumpPeak)
	}
	after, dumpAfter := runnerGoroutines()
	if got := after - before; got != parked {
		t.Errorf("runner goroutines after Run = %d, want %d (one per parked proc)\nbefore:\n%s\nafter Run:\n%s",
			got, parked, dumpBefore, dumpAfter)
	}
}

// TestProcGoexitEndsRunGoroutine pins what runtime.Goexit in a proc
// body does: iter.Pull propagates it to the goroutine that called Run,
// which exits without Run returning. The proc's exit is still recorded
// and the Env stays usable.
func TestProcGoexitEndsRunGoroutine(t *testing.T) {
	env := NewEnv()
	q := env.Spawn("quitter", func(p *Proc) { runtime.Goexit() })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = env.Run() // never returns: the proc's Goexit ends this goroutine
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned; want the proc's Goexit to end Run's goroutine")
	}
	if !q.Done().Fired() {
		t.Error("quitter's Done did not fire")
	}
	if env.running {
		t.Error("Env still marked running")
	}
	ran := false
	env.Spawn("after", func(p *Proc) { ran = true })
	if err := env.Run(); err != nil || !ran {
		t.Fatalf("Run after Goexit = %v, ran = %v", err, ran)
	}
}
