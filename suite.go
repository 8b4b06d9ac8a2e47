package conferr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"conferr/internal/core"
)

// This file wires the core campaign-suite orchestrator to the registry:
// suites of named campaigns with a shared worker budget, and the target ×
// generator matrix the `conferr matrix` subcommand runs.

// Suite types, re-exported for API users.
type (
	// Suite runs a set of campaigns concurrently under one context with a
	// shared worker budget.
	Suite = core.Suite
	// SuiteCampaign is one suite cell: a named campaign plus options.
	SuiteCampaign = core.SuiteCampaign
	// SuiteResult aggregates a suite run.
	SuiteResult = core.SuiteResult
	// CampaignResult is the outcome of one suite cell.
	CampaignResult = core.CampaignResult
)

// NewSuiteCampaignLifecycle builds one suite cell from a target family
// and a generator: the primary target (built at port; 0 allocates) serves
// faultload generation, and every worker runs its own factory-built SUT
// instance at the primary's port, in a private memnet namespace or on a
// kernel loopback host of its own — which is what lets several campaigns
// of one system family run concurrently in a suite without colliding.
// Each worker drives its SUT in the given lifecycle (cold starts, warm
// reloads or validate-only, falling back to cold for incapable systems)
// and the engine releases it when the run ends, so the cell needs no
// cleanup. A non-nil counters aggregates lifecycle activity across
// cells. matrix cells, Runner and the paper's experiments are all built
// here.
func NewSuiteCampaignLifecycle(name string, factory TargetFactory, port int, gen Generator, mode Lifecycle, counters *LifecycleCounters) (SuiteCampaign, error) {
	if port < 0 || port > 65535 {
		// A typo'd faultload against such a port would be one silent
		// detection per scenario: every config names an invalid port.
		return SuiteCampaign{}, fmt.Errorf("conferr: %s: port %d is outside 0-65535", name, port)
	}
	primary, err := factory(port)
	if err != nil {
		return SuiteCampaign{}, fmt.Errorf("conferr: building %s primary target: %w", name, err)
	}
	return SuiteCampaign{
		Name: name,
		Campaign: &core.Campaign{
			Target:    primary.Target,
			Generator: gen,
		},
		Options: []core.RunOption{core.WithTargetFactory(lifecycleFactory(factory, primary, mode, counters))},
	}, nil
}

// MatrixEntry names one cell of a target × generator matrix, resolved from
// the registry at run time.
type MatrixEntry struct {
	// System is the registered target name.
	System string
	// Plugin is the registered generator name.
	Plugin string
	// Options parameterize the generator; Options.System is overwritten
	// with System.
	Options GeneratorOptions
	// Port fixes the primary port (0 = allocate, or MatrixOptions.BasePort
	// + index when set).
	Port int
}

// MatrixEntries builds the cross product of registered system and plugin
// names. Pairs whose generator cannot be built for the system (for
// example, the semantic plugin against a non-DNS target) are skipped and
// reported; unknown names and negative counts are errors.
func MatrixEntries(systems, plugins []string, opts GeneratorOptions) (entries []MatrixEntry, skipped []string, err error) {
	for _, plugin := range plugins {
		if _, err := LookupGenerator(plugin); err != nil {
			return nil, nil, err
		}
	}
	// Checked once here: newGenerator would refuse them per pair, and the
	// loop below would skip every pair.
	if err := opts.check(); err != nil {
		return nil, nil, fmt.Errorf("conferr: %w", err)
	}
	for _, system := range systems {
		if _, err := LookupTarget(system); err != nil {
			return nil, nil, err
		}
		o := opts
		o.System = system
		for _, plugin := range plugins {
			if _, err := newGenerator(system, plugin, o); err != nil {
				skipped = append(skipped, fmt.Sprintf("%s/%s: %v", system, plugin, errors.Unwrap(err)))
				continue
			}
			entries = append(entries, MatrixEntry{System: system, Plugin: plugin, Options: o})
		}
	}
	return entries, skipped, nil
}

// MatrixOptions shape a RunMatrix invocation.
type MatrixOptions struct {
	// Workers is the suite's total worker budget (0 = GOMAXPROCS).
	Workers int
	// BasePort, when non-zero, assigns entry i the primary port BasePort+i
	// (entries with an explicit Port keep it).
	BasePort int
	// Rounds > 1 replays each cell's faultload that many times with
	// round-prefixed scenario IDs — the scale harness (core.RepeatGenerator).
	Rounds int
	// Sample > 0 reservoir-samples that many scenarios per cell, seeded
	// from the entry's Options.Seed.
	Sample int
	// Limit > 0 caps each cell's faultload, lazily: generation past the
	// cap never happens.
	Limit int
	// KeepGoing keeps the remaining campaigns running when one fails.
	KeepGoing bool
	// Lifecycle selects how every cell's worker SUTs are driven:
	// LifecycleCold (default), LifecycleReload or LifecycleValidate.
	// Systems without the capability fall back to cold starts.
	Lifecycle Lifecycle
	// PoolCounters, when non-nil, aggregates the lifecycle activity of
	// every cell — pass one in to report reload/validate tallies after
	// the matrix.
	PoolCounters *LifecycleCounters
	// InMemory serves every cell's SUTs over the in-process transport
	// (see InMemoryTransport) instead of kernel loopback TCP. Profiles
	// are unchanged; the TCP stack is out of the picture.
	InMemory bool
	// SinkFor, when non-nil, supplies the streaming destination for each
	// entry's records; the suite then retains no per-record state for that
	// cell. When nil, each cell accumulates an in-memory profile.
	SinkFor func(entry MatrixEntry) Sink
	// ExperimentTimeout and PhaseTimeout arm the phase watchdog on every
	// cell: a SUT phase (start, probe, stop) exceeding its deadline is
	// recorded as an infrastructure error and the campaign continues. Zero
	// disables the watchdog — no per-experiment overhead.
	ExperimentTimeout time.Duration
	PhaseTimeout      time.Duration
}

// RunMatrix runs a target × generator matrix as one suite: every cell's
// faultload streams through the campaign engine under the shared worker
// budget, with per-campaign port allocation. Results come back in entry
// order.
func RunMatrix(ctx context.Context, entries []MatrixEntry, mo MatrixOptions) (*SuiteResult, error) {
	campaigns := make([]SuiteCampaign, 0, len(entries))
	for i, e := range entries {
		port := e.Port
		if port == 0 && mo.BasePort > 0 {
			port = mo.BasePort + i
		}
		sc, err := matrixCell(e, port, mo)
		if err != nil {
			return nil, err
		}
		campaigns = append(campaigns, sc)
	}
	suite := &Suite{Campaigns: campaigns, Workers: mo.Workers, KeepGoing: mo.KeepGoing}
	return suite.Run(ctx)
}

// matrixCell builds the suite cell of entry e with its primary at port.
// It is the one place a campaign cell is built from names and settings —
// matrix cells and dist shards both come from here, which is what keeps a
// shard byte-identical to the matrix cell it reproduces: the same
// generator wrappers in the same order (rounds, then sample, then limit),
// the same transport and lifecycle wiring, the same watchdog deadlines.
// MatrixOptions.KeepGoing is suite-level and not applied here.
func matrixCell(e MatrixEntry, port int, mo MatrixOptions) (SuiteCampaign, error) {
	name := e.System + "/" + e.Plugin
	o := e.Options
	// newGenerator refuses negative generator counts; these are the cell's.
	if err := cmp.Or(negative("Rounds", mo.Rounds), negative("Sample", mo.Sample), negative("Limit", mo.Limit),
		negative("ExperimentTimeout", mo.ExperimentTimeout), negative("PhaseTimeout", mo.PhaseTimeout)); err != nil {
		return SuiteCampaign{}, fmt.Errorf("conferr: %s: %w", name, err)
	}
	tf, err := LookupTarget(e.System)
	if err != nil {
		return SuiteCampaign{}, err
	}
	if mo.InMemory {
		tf = InMemoryTransport(tf)
	}
	gen, err := newGenerator(e.System, e.Plugin, o)
	if err != nil {
		return SuiteCampaign{}, err
	}
	if mo.Rounds > 1 {
		gen = core.RepeatGenerator(gen, mo.Rounds)
	}
	if mo.Sample > 0 {
		gen = core.SampleGenerator(gen, o.Seed, mo.Sample)
	}
	if mo.Limit > 0 {
		gen = core.LimitGenerator(gen, mo.Limit)
	}
	sc, err := NewSuiteCampaignLifecycle(name, tf, port, gen, mo.Lifecycle, mo.PoolCounters)
	if err != nil {
		return SuiteCampaign{}, err
	}
	if mo.SinkFor != nil {
		sc.Sink = mo.SinkFor(e)
	}
	// Zero deadlines leave the watchdog off.
	sc.Options = append(sc.Options, core.WithDeadlines(core.Deadlines{Experiment: mo.ExperimentTimeout, Phase: mo.PhaseTimeout}))
	return sc, nil
}
