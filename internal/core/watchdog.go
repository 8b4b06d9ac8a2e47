package core

import (
	"fmt"
	"runtime/debug"
	"time"

	"conferr/internal/sutpool"
	"conferr/internal/suts"
)

// This file implements the phase watchdog: per-experiment deadlines on
// every SUT lifecycle phase (start/reload, probe, stop, release). A
// wedged SUT — one that blocks inside a phase — cannot stall a campaign:
// the phase times out, the experiment is recorded with the
// InfrastructureError outcome, the instance is quarantined (the sutpool
// path), and the campaign keeps going.
//
// Goroutines cannot be killed, so a timed-out phase is ABANDONED: the
// call keeps running on its goroutine until it returns, at which point
// the instance is torn down. The watchdog never lets two calls touch the
// underlying system concurrently: it starts a replacement runner only
// after the abandoned one has fully exited, and waits for that under the
// next phase's deadline. So a still-wedged instance simply times out
// again (each experiment bounded by its own deadline) until the stuck
// call finally returns and the cold-restart path revives it, and a
// worker never holds more than one runner, however long the wedge lasts.

// Deadlines configures the phase watchdog. The zero value disables it:
// no worker gets a watchdog, no phase goroutine starts, and the engine
// calls the SUT adapter directly.
type Deadlines struct {
	// Experiment bounds the SUT-phase time of one whole experiment:
	// start + probes + stop share the budget, re-armed at each Start.
	// 0 means no experiment-wide bound.
	Experiment time.Duration
	// Phase bounds every single phase call. 0 means no per-phase bound.
	Phase time.Duration
}

// Enabled reports whether any deadline is armed.
func (d Deadlines) Enabled() bool { return d.Experiment > 0 || d.Phase > 0 }

// WithDeadlines arms the phase watchdog for this run: each worker gets
// one, and every SUT phase call of the worker's experiments runs through
// it, bounded. See Deadlines.
func WithDeadlines(d Deadlines) RunOption {
	return func(cfg *runConfig) { cfg.deadlines = d }
}

// phaseCall is one unit of work handed to the watchdog's phase runner.
type phaseCall struct {
	phase string
	fn    func() error
	done  chan error
}

// watchdog bounds one worker's SUT phases: the engine hands it every
// phase call of an experiment (start, each probe, stop) and the release
// at the end of the run, and it runs each on a dedicated runner
// goroutine under a deadline. Like the Instance it guards, a watchdog
// belongs to one campaign worker; workers without deadlines have none.
type watchdog struct {
	inst *sutpool.Instance
	name string // cached: Name() must not touch a possibly-wedged system
	d    Deadlines

	// calls feeds the current phase runner; nil until the first phase
	// (or after an abandonment — the next phase starts a fresh runner).
	calls chan phaseCall
	// gate closes when the most recently started runner has fully
	// exited, teardown included; no successor starts before it closes,
	// so the underlying system never sees concurrent calls.
	gate chan struct{}

	timer    *time.Timer
	expStart time.Time

	// files is the watchdog's private copy of the engine's per-worker
	// scratch map: an abandoned phase goroutine may still read it long
	// after the engine has recycled its own, so the watchdog owns what
	// it hands down and forfeits it on every abandonment.
	files suts.Files
}

func newWatchdog(inst *sutpool.Instance, d Deadlines) *watchdog {
	return &watchdog{inst: inst, name: inst.Name(), d: d}
}

// start runs an experiment's start phase, re-arming the experiment
// budget.
func (w *watchdog) start(files suts.Files) error {
	w.expStart = time.Now()
	f := w.copyFiles(files)
	return w.run("start", func() error { return w.inst.Start(f) })
}

// release ends the instance's run under a deadline, so even the final
// shutdown of a wedged warm instance cannot hang the campaign teardown. It runs outside any experiment, so the experiment
// budget is re-armed rather than inherited from the last scenario.
func (w *watchdog) release() error {
	w.expStart = time.Now()
	return w.run("release", w.inst.Release)
}

// budget returns the deadline for the next phase: the per-phase bound
// capped by what remains of the experiment budget. <= 0 means the
// experiment budget is already exhausted — the phase must not run.
func (w *watchdog) budget() time.Duration {
	b := w.d.Phase
	if w.d.Experiment > 0 && !w.expStart.IsZero() {
		rem := w.d.Experiment - time.Since(w.expStart)
		if b <= 0 || rem < b {
			b = rem
		}
	}
	return b
}

// run executes fn as one phase under the watchdog's deadline. On expiry
// it abandons the runner, quarantines the instance and returns a
// *suts.PhaseTimeoutError; the engine records it as InfrastructureError.
func (w *watchdog) run(phase string, fn func() error) error {
	budget := w.budget()
	if budget <= 0 {
		// The experiment budget is gone (an earlier phase consumed it,
		// or timed out): refuse without dispatching.
		return &suts.PhaseTimeoutError{System: w.name, Phase: phase, Timeout: 0}
	}
	w.arm(budget)
	start := time.Now()
	if w.calls == nil {
		// No runner serves: start one, but only once the abandoned one
		// (possibly still stuck in its phase) has exited. On a wedged
		// instance that may never happen, so the wait is bounded too.
		if w.gate != nil {
			select {
			case <-w.gate:
			case <-w.timer.C:
				w.inst.Quarantine()
				return &suts.PhaseTimeoutError{System: w.name, Phase: phase, Timeout: budget, Elapsed: time.Since(start)}
			}
		}
		w.calls, w.gate = make(chan phaseCall), make(chan struct{})
		go runPhases(w.inst, w.name, w.calls, w.gate)
	}
	pc := phaseCall{phase: phase, fn: fn, done: make(chan error, 1)}
	// The runner has answered every earlier call, so the handoff waits
	// at most for it to loop back to its receive.
	w.calls <- pc
	select {
	case err := <-pc.done:
		w.disarm()
		return err
	case <-w.timer.C:
		w.abandon()
		return &suts.PhaseTimeoutError{System: w.name, Phase: phase, Timeout: budget, Elapsed: time.Since(start)}
	}
}

// runPhases is the phase runner: it serves calls until the channel
// closes (abandonment), then tears the — by then wedged — system down
// and closes gate.
func runPhases(inst *sutpool.Instance, name string, calls chan phaseCall, gate chan struct{}) {
	defer close(gate)
	for c := range calls {
		c.done <- safePhase(name, c.phase, c.fn)
	}
	// Abandoned: the stuck call has finally returned (or never started).
	// Best-effort teardown so the quarantined instance cold-starts clean.
	func() {
		defer func() { recover() }()
		_ = inst.Shutdown()
	}()
}

// safePhase runs one phase, converting a panic into an error so a
// panicking SUT or functional test cannot kill the runner (and with it
// the process).
func safePhase(name, phase string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &suts.PhasePanicError{
				System: name,
				Phase:  phase,
				Value:  fmt.Sprint(v),
				Stack:  string(debug.Stack()),
			}
		}
	}()
	return fn()
}

// abandon gives up on the current runner after a timeout: the calls
// channel closes (the runner exits and tears the system down whenever
// its stuck call returns), the scratch copy is forfeited (the stuck
// call may still read it), and the instance is quarantined so the next
// experiment cold-starts instead of trusting wedged warm state.
func (w *watchdog) abandon() {
	close(w.calls)
	w.calls = nil
	w.files = nil
	w.inst.Quarantine()
}

// arm sets the reusable timer.
func (w *watchdog) arm(d time.Duration) {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
		return
	}
	w.timer.Reset(d)
}

// disarm stops the timer, draining a concurrent expiry so the next arm
// starts clean.
func (w *watchdog) disarm() {
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
}

// copyFiles snapshots the engine's scratch files map into the
// watchdog's private map — zero allocations steady-state; a fresh map
// only after an abandonment, whose stuck reader owns the old one.
func (w *watchdog) copyFiles(files suts.Files) suts.Files {
	if w.files == nil {
		w.files = make(suts.Files, len(files))
	} else {
		clear(w.files)
	}
	for name, data := range files {
		w.files[name] = data
	}
	return w.files
}
