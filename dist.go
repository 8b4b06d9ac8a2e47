package conferr

import (
	"context"
	"fmt"

	"conferr/internal/core"
	"conferr/internal/dist"
	"conferr/internal/profile"
)

// This file wires the distributed-campaign machinery (internal/dist) to
// the registry: a shard runner that turns a wire-level campaign spec into
// a real campaign — target family, generator plugin, lifecycle, transport
// — and executes one shard of it. internal/dist stays free of any
// knowledge of concrete systems or plugins; cmd/sutd hosts the runner
// behind a dist.Server and cmd/conferr's coordinator speaks to it.

// NewDistRunner returns the registry-backed shard runner cmd/sutd -serve
// hosts: every registered target and generator is reachable from a
// worker daemon.
func NewDistRunner() dist.ShardRunner {
	return dist.ShardRunnerFunc(runDistShard)
}

// DistCampaign materializes a wire spec into a runnable suite cell,
// mirroring RunMatrix's construction exactly — same generator wrapper
// order (rounds, then sample, then limit), same lifecycle wiring, same
// port handling — because byte-identity with a single-process matrix
// cell is the whole point.
func DistCampaign(spec dist.CampaignSpec) (SuiteCampaign, error) {
	tf, err := LookupTarget(spec.System)
	if err != nil {
		return SuiteCampaign{}, err
	}
	if spec.Memnet {
		tf = InMemoryTransport(tf)
	}
	gf, err := LookupGenerator(spec.Plugin)
	if err != nil {
		return SuiteCampaign{}, err
	}
	o := GeneratorOptions{
		System: spec.System, Seed: spec.Seed,
		PerModel: spec.PerModel, PerDirective: spec.PerDirective, PerClass: spec.PerClass,
	}
	gen, err := gf(o)
	if err != nil {
		return SuiteCampaign{}, fmt.Errorf("conferr: dist %s/%s: %w", spec.System, spec.Plugin, err)
	}
	if spec.Rounds > 1 {
		gen = core.RepeatGenerator(gen, spec.Rounds)
	}
	if spec.Sample > 0 {
		gen = core.SampleGenerator(gen, spec.Seed, spec.Sample)
	}
	if spec.Limit > 0 {
		gen = core.LimitGenerator(gen, spec.Limit)
	}
	mode, err := ParseLifecycle(spec.Lifecycle)
	if err != nil {
		return SuiteCampaign{}, err
	}
	return NewSuiteCampaignLifecycle(spec.System+"/"+spec.Plugin, tf, spec.Port, gen, mode, nil)
}

// runDistShard executes one shard: build the campaign from the spec, run
// shard k of n from the start sequence, and hand each record to emit as
// a fully rendered JSONL line (newline trimmed; the coordinator's merger
// re-appends it) tagged with its global sequence number.
func runDistShard(ctx context.Context, req dist.ShardRequest, emit func(seq int, line []byte) error) (dist.ShardResult, error) {
	spec := req.Campaign
	sc, err := DistCampaign(spec)
	if err != nil {
		return dist.ShardResult{}, err
	}
	defer sc.Cleanup()
	opts := append([]core.RunOption(nil), sc.Options...)
	if spec.KeepGoing {
		opts = append(opts, core.WithKeepGoing(true))
	}
	if req.ExperimentTimeout > 0 || req.PhaseTimeout > 0 {
		opts = append(opts, core.WithDeadlines(core.Deadlines{
			Experiment: req.ExperimentTimeout,
			Phase:      req.PhaseTimeout,
		}))
	}

	var (
		sum profile.Summary
		buf []byte
	)
	total, err := sc.Campaign.RunShard(ctx, req.Shard, req.Shards, req.StartSeq, func(seq int, rec profile.Record) error {
		sum.Add(rec)
		if spec.NoDuration {
			rec.Duration = 0
		}
		buf = profile.AppendJSONLRecord(buf[:0], spec.System, spec.Plugin, seq, rec)
		return emit(seq, buf[:len(buf)-1])
	}, opts...)
	return dist.ShardResult{Records: total, Summary: sum}, err
}
