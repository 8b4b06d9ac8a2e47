package conferr

import (
	"context"

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

// DistCampaign builds the suite cell a wire spec describes with the
// builder RunMatrix uses for each of its cells, so a shard runs exactly
// the cell `conferr matrix` would at the spec's port — the whole point of
// byte-identity with a single-process run. The spec's watchdog deadlines
// are among the cell's Options; its KeepGoing, NoDuration and TallyOnly
// shape the shard run, not the cell.
func DistCampaign(spec dist.CampaignSpec) (SuiteCampaign, error) {
	mode, err := ParseLifecycle(spec.Lifecycle)
	if err != nil {
		return SuiteCampaign{}, err
	}
	return matrixCell(MatrixEntry{System: spec.System, Plugin: spec.Plugin, Options: GeneratorOptions{
		Seed: spec.Seed, PerModel: spec.PerModel, PerDirective: spec.PerDirective, PerClass: spec.PerClass,
	}}, spec.Port, MatrixOptions{
		Rounds: spec.Rounds, Sample: spec.Sample, Limit: spec.Limit, Lifecycle: mode, InMemory: spec.Memnet,
		ExperimentTimeout: spec.ExperimentTimeout, PhaseTimeout: spec.PhaseTimeout,
	})
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
	}, append(sc.Options, core.WithKeepGoing(spec.KeepGoing))...)
	return dist.ShardResult{Records: total, Summary: sum}, err
}
