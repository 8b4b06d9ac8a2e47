package core

import (
	"context"
	"errors"
	"runtime"

	"conferr/internal/profile"
	"conferr/internal/scenario"
)

// TargetFactory constructs a fresh, independent Target for one campaign
// worker. Runs with a factory execute every experiment on factory-built
// targets so that start/stop cycles and port bindings of concurrent
// experiments — within one campaign or across campaigns of a suite —
// never collide.
type TargetFactory func() (*Target, error)

// runConfig collects the per-run settings of RunContext.
type runConfig struct {
	parallelism int
	observer    func(profile.Record)
	keepGoing   bool
	baseline    bool
	factory     TargetFactory
	deadlines   Deadlines
}

// RunOption configures a single RunContext invocation.
type RunOption func(*runConfig)

// WithParallelism sets the number of campaign workers. n <= 0 selects
// GOMAXPROCS. Any value above 1 requires a target factory (see
// WithTargetFactory). The default is 1: one worker injecting the
// faultload in scenario order, as in the paper.
func WithParallelism(n int) RunOption {
	return func(cfg *runConfig) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		cfg.parallelism = n
	}
}

// WithObserver streams every record to fn as experiments complete,
// overriding Campaign.Observer for this run. Calls are serialized (fn
// needs no locking) and arrive in scenario order: under parallelism the
// reassembly stage invokes fn as each record is flushed to its slot in the
// deterministic, generator-ordered profile.
func WithObserver(fn func(profile.Record)) RunOption {
	return func(cfg *runConfig) { cfg.observer = fn }
}

// WithKeepGoing overrides Campaign.KeepGoing for this run: when true,
// infrastructure errors are recorded as not-applicable and the campaign
// continues instead of aborting.
func WithKeepGoing(keep bool) RunOption {
	return func(cfg *runConfig) { cfg.keepGoing = keep }
}

// WithBaselineCheck verifies, before any injection, that the unmutated
// configuration starts the SUT and passes every functional test — the
// invariant that makes a resilience profile meaningful.
func WithBaselineCheck() RunOption {
	return func(cfg *runConfig) { cfg.baseline = true }
}

// WithTargetFactory supplies the per-worker target constructor. The
// factory must produce targets that inject the same faultload as the
// campaign's primary target (same formats, equivalent functional tests).
// When a factory is present, every worker — a one-worker run included —
// runs on a factory-built target; the campaign's primary target serves
// faultload generation and the baseline check only, which is what lets a
// Suite run several campaigns of one system family concurrently without
// their experiments contending for the primary port. Without a factory,
// the one worker runs on the primary target.
//
// A worker drives its SUT through a *sutpool.Instance: the target's
// System when it already is one (a facade pool lease, carrying the
// lifecycle mode and the port remap), otherwise a pool-less cold
// Instance around it.
func WithTargetFactory(f TargetFactory) RunOption {
	return func(cfg *runConfig) { cfg.factory = f }
}

// RunContext executes the campaign under a context. The faultload is
// generated exactly once — materialized and validated up front — and
// each of WithParallelism workers, each owning its own SUT instance,
// walks the slice at its own stride. Whatever the parallelism, the
// returned profile lists records in scenario order and is deterministic
// for a fixed faultload.
//
// On cancellation, RunContext returns ctx.Err() together with the profile
// of every experiment that completed and flushed in order. On an
// infrastructure error without WithKeepGoing, the campaign aborts:
// in-flight experiments finish, no new ones start, and the error of the
// earliest failing scenario is returned.
func (c *Campaign) RunContext(ctx context.Context, opts ...RunOption) (*profile.Profile, error) {
	cfg := c.config(opts)
	prof := &profile.Profile{
		System:    c.Target.System.Name(),
		Generator: c.Generator.Name(),
	}
	if err := ctx.Err(); err != nil {
		return prof, err
	}
	fl, err := c.generate()
	if err != nil {
		return prof, err
	}
	if cfg.baseline {
		if err := c.baselineOn(fl.sysSet, fl.baseBytes); err != nil {
			return prof, err
		}
	}
	// No more workers than scenarios, but at least one.
	cfg.parallelism = max(min(cfg.parallelism, len(fl.scens)), 1)
	_, err = runSharded(ctx, cfg, c.Target, fl, sliceFeed(fl.scens), &profile.MemorySink{Profile: prof})
	return prof, err
}

// RunStream executes the campaign's faultload as a pull stream: scenarios
// are drawn lazily from the generator (see StreamingGenerator) by the
// workers themselves, and every record is flushed to the sink in scenario
// order as soon as its predecessors have completed. A pure generator
// (ShardedGenerator) is sharded, each worker deriving its own stride of
// the stream; any other stream is generated once and shared, each worker
// pulling the next scenario under a lock. Nothing grows with the
// faultload — not a scenario slice, not a profile — so a campaign's size
// is bounded by the stream, not by memory.
//
// It returns the number of records flushed to the sink. The error contract
// matches RunContext; a mid-stream generation error additionally arrives
// after the records preceding it have been flushed.
func (c *Campaign) RunStream(ctx context.Context, sink profile.Sink, opts ...RunOption) (int, error) {
	cfg := c.config(opts)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	stop := func() {}
	fl, feed, err := c.openFeed(cfg, func(src scenario.Source) shardFeed {
		var f shardFeed
		f, stop = pullFeed(src)
		return f
	})
	if err != nil {
		return 0, err
	}
	defer stop()
	return runSharded(ctx, cfg, c.Target, fl, feed, sink)
}

// openFeed generates the faultload's base state, runs the baseline check
// and picks the feed by generator: genFeed for a shardable generator
// (CanShard), opaque over the validated stream for any other.
func (c *Campaign) openFeed(cfg runConfig, opaque func(scenario.Source) shardFeed) (*faultload, shardFeed, error) {
	sg, sharded := c.Generator.(ShardedGenerator)
	sharded = sharded && CanShard(c.Generator)
	var (
		fl  *faultload
		src scenario.Source
		err error
	)
	if sharded {
		fl, err = c.generateBase()
	} else {
		fl, src, err = c.generateStream()
	}
	if err != nil {
		return nil, nil, err
	}
	if cfg.baseline {
		if err := c.baselineOn(fl.sysSet, fl.baseBytes); err != nil {
			return nil, nil, err
		}
	}
	if sharded {
		return fl, genFeed(c, fl, sg), nil
	}
	return fl, opaque(src), nil
}

// config folds the campaign defaults and the run options.
func (c *Campaign) config(opts []RunOption) runConfig {
	cfg := runConfig{
		parallelism: 1,
		observer:    c.Observer,
		keepGoing:   c.KeepGoing,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// errParallelNeedsFactory is the complaint of a run asked for more than
// one worker without a target factory.
var errParallelNeedsFactory = errors.New("core: parallel run requires a target factory (WithTargetFactory)")

// streamWindow sizes the reassembly ring for a worker count: it caps how
// many scenarios may be in flight — started but not yet flushed in order
// — which bounds the ring and, with it, the engine's memory footprint on
// unbounded streams.
func streamWindow(workers int) int {
	return 256 * max(workers, 1)
}
