package sutpool

import (
	"sync/atomic"

	"conferr/internal/suts"
)

// Instance is the one adapter between the campaign engine and a
// worker's SUT. Start dispatches each experiment to a cold start, a warm
// reload or a parse-only validation by Mode, handing the SUT the
// engine's bytes verbatim and nothing else: the SUT is never told which
// files an experiment changed. Stop keeps warm instances running. The
// engine calls it directly — the System methods are for everything that
// only needs a suts.System. An Instance belongs to one campaign worker
// for one run: the worker's target factory builds it, and the engine
// releases it when the run ends. It is not safe for concurrent use.
type Instance struct {
	sys  suts.System
	mode Mode
	c    *Counters
	rel  suts.Reloader  // nil unless sys reloads and mode == Reload
	val  suts.Validator // nil unless sys validates and mode == Validate

	// warm is true while sys is running and the next Start may reload
	// instead of cold-starting. Only ever true in Reload mode with a
	// reload-capable SUT. Atomic not for concurrent lifecycle use (one
	// worker owns the instance) but because the engine's
	// phase watchdog may Quarantine the instance from the campaign
	// goroutine while an abandoned, still-wedged phase call holds it.
	warm atomic.Bool

	// unlease frees the instance's loopback host (see LeaseHost); nil
	// without one.
	unlease func()
}

// NewInstance adapts sys to the given mode. A nil c gets a private
// counter set.
func NewInstance(sys suts.System, mode Mode, c *Counters) *Instance {
	if c == nil {
		c = &Counters{}
	}
	i := &Instance{sys: sys, mode: mode, c: c}
	if mode == Reload {
		i.rel, _ = sys.(suts.Reloader)
	}
	if mode == Validate {
		i.val, _ = sys.(suts.Validator)
	}
	return i
}

// Managed names a system adapted to a lifecycle mode. Nothing in the
// engine checks for it, since each worker holds its Instance directly,
// and nothing implements it. It stays declared because the benchmark's
// capability table (bench/wrap.go) lists it.
type Managed interface {
	LifecycleMode() Mode
}

// Name implements suts.System.
func (i *Instance) Name() string { return i.sys.Name() }

// DefaultConfig implements suts.System.
func (i *Instance) DefaultConfig() suts.Files { return i.sys.DefaultConfig() }

// Start implements suts.System, dispatching on the mode. In Validate
// mode with a validating SUT it only parses; in Reload mode with a warm
// reload-capable SUT it swaps the configuration in place, quarantining
// and cold-restarting the instance when the reload wedges it (any
// non-StartupError failure). Everything else — Cold mode, capability
// fallbacks, the first start of a warm chain — is a plain cold start.
func (i *Instance) Start(files suts.Files) error {
	if i.mode == Validate && i.val != nil {
		i.c.Validates.Add(1)
		return i.val.Validate(files)
	}
	if i.warm.Load() && i.rel != nil {
		i.c.Reloads.Add(1)
		err := i.rel.Reload(files)
		if err == nil || suts.IsStartupError(err) {
			// Applied, or rejected by the SUT's own validation — either
			// way the instance keeps serving (the previous configuration
			// on rejection) and stays warm.
			return err
		}
		// Wedged: tear down and recover with a cold start on the same
		// files, so the experiment's outcome matches cold mode.
		i.warm.Store(false)
		_ = i.sys.Stop()
		i.c.Restarts.Add(1)
	}
	i.c.ColdStarts.Add(1)
	err := i.sys.Start(files)
	i.warm.Store(err == nil && i.mode == Reload && i.rel != nil)
	return err
}

// Stop implements suts.System. A warm instance is health-checked and
// kept running for the next experiment; an unhealthy one is quarantined
// (torn down, so the next Start is cold). Cold instances stop for real.
func (i *Instance) Stop() error {
	if !i.warm.Load() {
		return i.sys.Stop()
	}
	i.healthGate()
	return nil
}

// healthGate quarantines a warm instance that fails its health check.
func (i *Instance) healthGate() {
	h, ok := i.sys.(suts.HealthChecker)
	if !ok {
		return
	}
	if err := h.Health(); err != nil {
		i.c.HealthFailures.Add(1)
		i.warm.Store(false)
		_ = i.sys.Stop()
	}
}

// SkipProbes reports whether functional tests are meaningless for this
// instance's mode: true in Validate mode with a validating SUT, where
// nothing listens after a successful Start.
func (i *Instance) SkipProbes() bool {
	return i.mode == Validate && i.val != nil
}

// Shutdown stops the adapted SUT for real, warm or not.
func (i *Instance) Shutdown() error {
	i.warm.Store(false)
	return i.sys.Stop()
}

// Quarantine marks the instance so its next Start is a cold start
// instead of a warm reload, without touching the underlying system. The
// engine's phase watchdog calls it when a phase deadline expires: the
// wedged system cannot be stopped synchronously (the stuck call still
// owns it), so teardown happens on the watchdog's abandoned runner once
// that call returns, and this flag makes sure no warm-path optimism
// survives the incident.
func (i *Instance) Quarantine() {
	i.warm.Store(false)
	i.c.Quarantines.Add(1)
}

// Release ends the instance's run: it shuts a warm SUT down (a cold one
// has nothing running, its SUT was stopped after its last experiment)
// and frees the instance's loopback host. The engine calls it on every
// worker's instance when a run ends.
func (i *Instance) Release() error {
	var err error
	if i.warm.Load() {
		err = i.Shutdown()
	}
	if i.unlease != nil {
		i.unlease()
		i.unlease = nil
	}
	return err
}
