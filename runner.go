package conferr

import (
	"context"

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

// WithBaselineCheck verifies the unmutated configuration starts the SUT
// and passes all functional tests before any injection.
func WithBaselineCheck() RunOption { return core.WithBaselineCheck() }

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
	// experiment; LifecycleReload keeps each worker's instance warm and
	// swaps configurations in place; LifecycleValidate only parse-checks
	// them. Reload-mode profiles are byte-identical to cold ones;
	// validate mode trades functional-test coverage for speed (see the
	// README's "SUT lifecycle" section).
	Lifecycle Lifecycle
	// PoolCounters, when non-nil, tallies the lifecycle activity of this
	// runner's campaigns (cold starts, reloads, validates, restarts).
	// Safe to share across runners.
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
	gen, err := newGenerator(system, plugin, opts)
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
	sc, err := NewSuiteCampaignLifecycle(r.Generator.Name(), r.Factory, r.Port, r.Generator, r.Lifecycle, r.PoolCounters)
	if err != nil {
		return &profile.Profile{}, err
	}
	return sc.Campaign.RunContext(ctx, append(sc.Options, opts...)...)
}
