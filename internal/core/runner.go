package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"conferr/internal/profile"
)

// TargetFactory constructs a fresh, independent Target for one campaign
// worker. Runs with a factory execute every experiment on factory-built
// targets so that start/stop cycles and port bindings of concurrent
// experiments — within one campaign or across campaigns of a suite —
// never collide.
type TargetFactory func() (*Target, error)

// runConfig collects the per-run settings of RunContext, RunStream and
// RunShard.
type runConfig struct {
	parallelism int
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

// WithKeepGoing controls behaviour on infrastructure errors (not SUT
// detections): when false (the default) the campaign aborts; when true
// the scenario is recorded as not-applicable and the campaign continues.
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
// System when it already is one (the facade's worker targets, carrying
// the lifecycle mode and the worker's loopback host), otherwise a cold
// Instance around it. The engine releases every worker's instance when
// the run ends.
func WithTargetFactory(f TargetFactory) RunOption {
	return func(cfg *runConfig) { cfg.factory = f }
}

// RunContext executes the campaign under a context and returns its
// profile: it is RunStream into a sink that keeps every record, so the
// faultload streams and shards exactly as there, and WithParallelism
// above 1 needs a target factory whatever the faultload's size. Whatever
// the parallelism, the profile lists records in scenario order and is
// deterministic for a fixed faultload.
//
// Keeping every record lets RunContext refuse a ScenarioID that repeats an
// earlier one, which would collide in per-scenario reporting (Compare,
// FormatRecords sorting) and in JSONL dedup or resume. The refusal comes
// when the duplicate's record flushes, with the profile of every record
// before it.
//
// On cancellation, RunContext returns ctx.Err() together with the profile
// of every experiment that completed and flushed in order. On an
// infrastructure error without WithKeepGoing, the campaign aborts:
// in-flight experiments finish, no new ones start, and the error of the
// earliest failing scenario is returned.
func (c *Campaign) RunContext(ctx context.Context, opts ...RunOption) (*profile.Profile, error) {
	prof := &profile.Profile{System: c.Target.System.Name(), Generator: c.Generator.Name()}
	_, err := c.RunStream(ctx, &profileSink{prof: prof, seen: map[string]struct{}{}}, opts...)
	return prof, err
}

// profileSink is RunContext's sink: it appends every record to the profile
// and refuses a repeated ScenarioID. Records arrive gap-free in sequence
// order, so the profile's length is the duplicate's position.
type profileSink struct {
	prof *profile.Profile
	seen map[string]struct{}
}

func (s *profileSink) Write(rec profile.Record) error {
	if _, dup := s.seen[rec.ScenarioID]; dup {
		return fmt.Errorf("core: plugin %s emitted duplicate ScenarioID %q (scenario #%d)",
			s.prof.Generator, rec.ScenarioID, len(s.prof.Records))
	}
	s.seen[rec.ScenarioID] = struct{}{}
	s.prof.Add(rec)
	return nil
}

// RunStream executes the campaign's faultload as a pull stream: every
// worker derives its own shard of the pure faultload (see Generator) and
// pulls its scenarios lazily, and every record is flushed to the sink in
// scenario order as soon as its predecessors have completed. Nothing
// grows with the faultload — not a scenario slice, not a profile — so a
// campaign's size is bounded by the stream, not by memory.
//
// It returns the number of records flushed to the sink. The error contract
// matches RunContext; a mid-stream generation error additionally arrives
// after the records preceding it have been flushed.
func (c *Campaign) RunStream(ctx context.Context, sink profile.Sink, opts ...RunOption) (int, error) {
	cfg := c.config(opts)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	fl, feed, err := c.openFeed(cfg)
	if err != nil {
		return 0, err
	}
	return runSharded(ctx, cfg, c.Target, fl, feed, sink)
}

// openFeed generates the faultload's base state, runs the baseline check
// and returns the feed every worker derives its shard from (genFeed).
func (c *Campaign) openFeed(cfg runConfig) (*faultload, shardFeed, error) {
	fl, err := c.generateBase()
	if err != nil {
		return nil, nil, err
	}
	if cfg.baseline {
		if err := c.baselineOn(fl.baseBytes); err != nil {
			return nil, nil, err
		}
	}
	return fl, genFeed(c, fl), nil
}

// config folds the run options over the defaults.
func (c *Campaign) config(opts []RunOption) runConfig {
	cfg := runConfig{parallelism: 1}
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
