package conferr

import (
	"conferr/internal/core"
	"conferr/internal/sutpool"
)

// This file wires the pooled SUT lifecycle (internal/sutpool) into the
// facade: every campaign leases its worker SUTs from a per-campaign pool,
// whichever lifecycle it runs. Cold campaigns start and stop the SUT
// around every experiment, as in the paper; reload campaigns keep
// instances warm and health-checked between experiments, quarantined and
// cold-restarted when a reload wedges them; validate campaigns only
// parse-check. Released instances go back to the pool, which the run's
// cleanup closes.
//
// The pool's sutpool.Instance is each worker's one SUT adapter: it sees
// the real SUT, so reload capability detection works. Workers whose SUT
// serves over memnet bind the primary's port verbatim in their private
// namespace and run on exactly the sequential run's bytes. Kernel-TCP
// workers share the port space, so each runs on its own port and the
// Instance owns the remap that maps every error back to the primary's
// port — profiles stay byte-identical to cold runs either way. Systems
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
// cold starts, reloads, validates, quarantine restarts, health failures,
// pool leases and reuses. Share one across runs (it is concurrency-safe)
// and read it with Snapshot.
type LifecycleCounters = sutpool.Counters

// lifecycleFactory builds the run's worker pool and returns the core
// per-worker factory leasing from it, plus the cleanup that closes the
// pool, shutting down every idle instance. Each leased instance is a
// factory-built SUT adapted to the mode, with the finished engine target
// — the instance as its System — carried as the lease payload. When the
// primary serves over memnet every worker is built at the primary's port
// and nothing is remapped; otherwise workers get free ports mapped from
// the primary's. Released instances return to the pool warm, so
// consecutive campaigns over one pool skip even the first cold start.
func lifecycleFactory(f TargetFactory, primary *SystemTarget, mode Lifecycle, c *LifecycleCounters) (core.TargetFactory, func() error) {
	from := portOf(primary.System)
	port := 0
	if onMemnet(primary.System) {
		port = from
	}
	pool := sutpool.New(mode, c, func(p *sutpool.Pool) (*sutpool.Instance, error) {
		st, err := f(port)
		if err != nil {
			return nil, err
		}
		inst := p.Instance(st.Target.System)
		to := portOf(st.System)
		inst.MapPort(from, to)
		t := *st.Target
		t.System = inst
		if to != from {
			t.Tests = remapTests(t.Tests, inst)
		}
		inst.Payload = &t
		return inst, nil
	})
	return func() (*core.Target, error) {
		inst, err := pool.Lease()
		if err != nil {
			return nil, err
		}
		return inst.Payload.(*core.Target), nil
	}, pool.Close
}
