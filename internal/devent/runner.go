package devent

import "sync"

// maxIdleRunners caps an Env's idle-runner list. A burst of procs that
// all exit together keeps at most this many runners (one goroutine
// each) for reuse; the rest end with their bodies. Race-enabled builds
// keep every runner (see raceKept).
const maxIdleRunners = 64

// runner is a coroutine (built by newRunner with iter.Pull) that runs
// proc bodies one after another. The scheduler enters it with next and
// the body leaves it with yield, one coroswitch each way. After a body
// returns the runner puts itself on the Env's idle list and yields
// until Spawn hands it the next body, or ends if the list is full or
// it is stopped.
type runner struct {
	env   *Env
	proc  *Proc
	fn    func(*Proc)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// loop is the runner's iterator body.
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		r.proc.body(r.fn)
		r.proc, r.fn = nil, nil
		e := r.env
		if len(e.idle) >= maxIdleRunners && !raceEnabled {
			return
		}
		e.idle = append(e.idle, r)
		if !yield(struct{}{}) {
			return
		}
	}
}

// getRunner takes a runner from the idle list, else (race builds)
// from raceKept, else builds one.
func (e *Env) getRunner() *runner {
	if n := len(e.idle); n > 0 {
		r := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return r
	}
	if r := raceReuse(); r != nil {
		r.env = e
		return r
	}
	return e.newRunner()
}

// releaseIdle stops every idle runner, ending its goroutine; race
// builds file it in raceKept instead.
func (e *Env) releaseIdle() {
	for i, r := range e.idle {
		if !raceKeep(r) {
			r.stop()
		}
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// raceKept holds the runners a race-enabled build keeps instead of
// ending them. The Go runtime does not free a coroutine's
// race-detector state when the coroutine exits (coroexit skips
// racegoend), which leaks tens of KB per ended runner and adds up to
// gigabytes in a test binary that builds many Envs, so race builds hand
// idle runners on to later Envs instead. A runner is filed here only
// once it has yielded, so the next Env's next call is ordered after
// its yield. Other builds never touch it.
var raceKept struct {
	sync.Mutex
	runners []*runner
}

// raceKeep files an idle runner in raceKept and reports true in a
// race-enabled build; otherwise it reports false and the caller ends
// the runner.
func raceKeep(r *runner) bool {
	if !raceEnabled {
		return false
	}
	r.env = nil
	raceKept.Lock()
	raceKept.runners = append(raceKept.runners, r)
	raceKept.Unlock()
	return true
}

// raceReuse takes a runner from raceKept, or returns nil.
func raceReuse() *runner {
	if !raceEnabled {
		return nil
	}
	raceKept.Lock()
	defer raceKept.Unlock()
	n := len(raceKept.runners)
	if n == 0 {
		return nil
	}
	r := raceKept.runners[n-1]
	raceKept.runners[n-1] = nil
	raceKept.runners = raceKept.runners[:n-1]
	return r
}
