package conferr

import (
	"fmt"
	"sync/atomic"

	"conferr/internal/core"
	"conferr/internal/sutpool"
	"conferr/internal/suts"
)

// This file wires the SUT lifecycle (internal/sutpool) into the facade:
// every campaign worker owns one SUT instance for the run, whichever
// lifecycle it runs. Cold campaigns start and stop the SUT around every
// experiment, as in the paper; reload campaigns keep the instance warm
// and health-checked between experiments, quarantined and cold-restarted
// when a reload wedges it; validate campaigns only parse-check. The
// engine releases every worker's instance when the run ends.
//
// The sutpool.Instance is each worker's one SUT adapter: it sees the
// real SUT, so reload capability detection works. Every worker is built
// at the primary's port and runs on exactly the sequential run's bytes:
// a worker whose SUT serves over memnet binds that port in its private
// namespace, and a kernel-TCP worker binds it on a loopback host of its
// own (suts.HostSetter), which its functional tests dial too. Profiles
// stay byte-identical to single-worker cold runs either way. Systems
// lacking the reload capability fall back to cold starts.

// Lifecycle selects how worker SUTs are driven through experiments:
// LifecycleCold (the paper's start/stop-per-experiment engine, the
// default), LifecycleReload (warm instances re-configured in place) or
// LifecycleValidate (parse-only checks; functional tests are skipped, so
// faults only the running server would catch are reported as Ignored).
type Lifecycle = sutpool.Mode

// Lifecycle modes, re-exported from internal/sutpool.
const (
	LifecycleCold     = sutpool.Cold
	LifecycleReload   = sutpool.Reload
	LifecycleValidate = sutpool.Validate
)

// ParseLifecycle parses a lifecycle flag value: "cold" (or ""),
// "reload", or "validate".
func ParseLifecycle(s string) (Lifecycle, error) { return sutpool.ParseMode(s) }

// LifecycleCounters tallies what the lifecycle machinery actually did —
// cold starts, reloads, validates, quarantine restarts and health
// failures. Share one across runs (it is concurrency-safe) and read it
// with Snapshot.
type LifecycleCounters = sutpool.Counters

// lifecycleFactory returns the core per-worker factory of a run. Each
// call builds a target with f at the primary's port, adapts its SUT to
// the mode and counters, and makes the adapter the target's System; the
// engine releases it when the run ends.
//
// A kernel-TCP system that reports a port but cannot move to a host of
// its own runs on 127.0.0.1 itself, so only one worker can hold it.
// Systems without a port (external processes, internal/proc) are built
// at port 0 and left alone.
func lifecycleFactory(f TargetFactory, primary *SystemTarget, mode Lifecycle, c *LifecycleCounters) core.TargetFactory {
	port := portOf(primary.System)
	var built atomic.Int32
	return func() (*core.Target, error) {
		st, err := f(port)
		if err != nil {
			return nil, err
		}
		inst := sutpool.NewInstance(st.Target.System, mode, c)
		if port != 0 && !onMemnet(st.System) {
			hs, ok := st.System.(suts.HostSetter)
			if !ok && built.Add(1) > 1 {
				return nil, fmt.Errorf("conferr: %s serves port %d on 127.0.0.1 and cannot move to a loopback host of its own (no suts.HostSetter); run it with one worker", st.System.Name(), port)
			}
			if ok {
				host, err := inst.LeaseHost()
				if err != nil {
					return nil, err
				}
				hs.SetHost(host)
			}
		}
		t := *st.Target
		t.System = inst
		return &t, nil
	}
}

// portOf is the port a simulator listens on, 0 for a system without one.
func portOf(sys suts.System) int {
	if dp, ok := sys.(interface{ DefaultPort() int }); ok {
		return dp.DefaultPort()
	}
	return 0
}
