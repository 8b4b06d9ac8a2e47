package conferr

import (
	"context"
	"fmt"

	"conferr/internal/core"
	"conferr/internal/profile"
)

// RunOption configures one Runner.Run (or Campaign.RunContext) call.
type RunOption = core.RunOption

// WithParallelism sets the number of campaign workers; each worker owns
// its own SUT instance built from the Runner's factory. n <= 0 selects
// GOMAXPROCS; the default is 1, one worker injecting the faultload in
// scenario order as in the paper.
func WithParallelism(n int) RunOption { return core.WithParallelism(n) }

// WithObserver streams every record to fn as experiments complete. Calls
// are serialized and arrive in scenario order — under parallelism the
// reassembly stage invokes fn as each record flushes into the
// deterministic, generator-ordered profile.
func WithObserver(fn func(Record)) RunOption { return core.WithObserver(fn) }

// WithKeepGoing makes infrastructure errors non-fatal: the scenario is
// recorded as not-applicable and the campaign continues.
func WithKeepGoing(keep bool) RunOption { return core.WithKeepGoing(keep) }

// WithBaselineCheck verifies the unmutated configuration starts the SUT
// and passes all functional tests before any injection.
func WithBaselineCheck() RunOption { return core.WithBaselineCheck() }

// Deadlines configures the phase watchdog (see WithDeadlines).
type Deadlines = core.Deadlines

// WithDeadlines arms the phase watchdog: every SUT phase of every
// experiment — start, each functional test, stop — is bounded by
// Deadlines.Phase, and a whole experiment's SUT time by
// Deadlines.Experiment. A phase exceeding its deadline is abandoned, the
// experiment records the InfrastructureError outcome with the phase and
// elapsed time in its detail, the worker's instance is quarantined (next
// start is cold), and the campaign continues. The zero value disables
// the watchdog entirely.
func WithDeadlines(d Deadlines) RunOption { return core.WithDeadlines(d) }

// Runner executes campaigns of one generator against one target family,
// sequentially or in parallel. The zero value is not usable; construct it
// with NewRunner or NewRunnerFor.
//
// The faultload is generated once, from the primary target (built at Port)
// — so scenario IDs, mutated bytes and profiles are identical whatever the
// parallelism — and then fanned out over the workers, each running its own
// SUT instance from the same factory.
type Runner struct {
	// Factory builds the target; once for the primary plus once per
	// additional worker.
	Factory TargetFactory
	// Generator is the error-generator plugin.
	Generator Generator
	// Port is where the primary target listens (0 = allocate). Experiments
	// pin it so faultloads that typo the port digits stay reproducible.
	Port int
	// Lifecycle selects how worker SUTs are driven through experiments:
	// LifecycleCold (default) starts and stops the SUT around every
	// experiment; LifecycleReload keeps pooled instances warm and swaps
	// configurations in place; LifecycleValidate only parse-checks them.
	// Reload-mode profiles are byte-identical to cold ones; validate mode
	// trades functional-test coverage for speed (see the README's "SUT
	// lifecycle" section).
	Lifecycle Lifecycle
	// PoolCounters, when non-nil, tallies the lifecycle activity of this
	// runner's campaigns (cold starts, reloads, validates, restarts, pool
	// reuse). Safe to share across runners.
	PoolCounters *LifecycleCounters
}

// NewRunner returns a Runner for the given target factory and generator.
func NewRunner(factory TargetFactory, gen Generator) *Runner {
	return &Runner{Factory: factory, Generator: gen}
}

// NewRunnerFor resolves the target and generator from the registry by
// name. opts.System is overwritten with the system name so that
// system-specific generators resolve their view against the right target.
func NewRunnerFor(system, plugin string, opts GeneratorOptions) (*Runner, error) {
	tf, err := LookupTarget(system)
	if err != nil {
		return nil, err
	}
	gf, err := LookupGenerator(plugin)
	if err != nil {
		return nil, err
	}
	opts.System = system
	gen, err := gf(opts)
	if err != nil {
		return nil, err
	}
	return &Runner{Factory: tf, Generator: gen}, nil
}

// Run executes the campaign under ctx. See Campaign.RunContext for the
// cancellation and error contract; the returned profile is scenario-
// ordered and deterministic for a fixed faultload whatever the worker
// count.
func (r *Runner) Run(ctx context.Context, opts ...RunOption) (*Profile, error) {
	c, coreOpts, cleanup, err := r.campaign(opts)
	if err != nil {
		return &profile.Profile{}, err
	}
	prof, err := c.RunContext(ctx, coreOpts...)
	if cerr := cleanup(); cerr != nil && err == nil {
		err = cerr
	}
	return prof, err
}

// RunStream executes the campaign with the faultload pulled lazily from
// the generator and every record flushed to sink in scenario order as it
// completes — no scenario slice, no in-memory profile, so campaign size is
// bounded by the stream rather than by RAM. It returns the number of
// records flushed; see Campaign.RunStream for the full contract.
func (r *Runner) RunStream(ctx context.Context, sink Sink, opts ...RunOption) (int, error) {
	c, coreOpts, cleanup, err := r.campaign(opts)
	if err != nil {
		return 0, err
	}
	n, err := c.RunStream(ctx, sink, coreOpts...)
	if cerr := cleanup(); cerr != nil && err == nil {
		err = cerr
	}
	return n, err
}

// campaign builds the core campaign around a fresh primary target, wiring
// the per-worker factory — leases from a worker pool in the runner's
// lifecycle, each instance port-mapped from the primary — in front of the
// caller's options. The returned cleanup closes the worker pool and must
// run after the campaign.
func (r *Runner) campaign(opts []RunOption) (*core.Campaign, []RunOption, func() error, error) {
	primary, err := r.Factory(r.Port)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("conferr: building primary target: %w", err)
	}
	c := &core.Campaign{
		Target:    primary.Target,
		Generator: r.Generator,
	}
	factory, cleanup := lifecycleFactory(r.Factory, primary, r.Lifecycle, r.PoolCounters)
	coreOpts := make([]RunOption, 0, len(opts)+1)
	coreOpts = append(coreOpts, core.WithTargetFactory(factory))
	coreOpts = append(coreOpts, opts...)
	return c, coreOpts, cleanup, nil
}
