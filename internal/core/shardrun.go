package core

import (
	"context"
	"fmt"
	"math"

	"conferr/internal/profile"
	"conferr/internal/scenario"
)

// This file is the remote half of the sharded engine: where shard.go fans
// a faultload out over in-process workers, RunShard executes exactly one
// shard — the unit a campaign worker daemon (cmd/sutd -serve) runs on
// behalf of a coordinator. Because generation is a pure function of
// (Seed, shard k of n), a remote worker re-derives its slice of the
// faultload locally from the campaign description alone: no scenario
// transfer, and the emitted (sequence, record) pairs merge with every
// other shard into the same deterministic profile a single-process run
// produces.

// ShardEmit receives one completed experiment with its global sequence
// number (the position the record holds in the unsharded stream).
// RunShard calls it from a single goroutine, in increasing sequence
// order. A non-nil error aborts the shard.
type ShardEmit func(seq int, rec profile.Record) error

// RunShard executes shard k of n of the campaign's faultload on one
// target, emitting every record tagged with its global sequence number.
// Sequences below startSeq are skipped without running the experiment —
// the resume path: a coordinator that already holds a contiguous prefix
// re-requests the shard with startSeq set to its flush front and the
// worker generates past the prefix without re-injecting it.
//
// It returns the shard's total scenario count — skipped and executed
// alike, i.e. how many sequences of the unsharded stream this shard owns
// — which is what a coordinator sums across shards to gap-check the
// merged profile. The shard is derived as an in-process worker derives
// its own (genFeed): a generator that walks, scenario.Walk, renders only
// the shard's scenarios and steps over the rest; any other is strided
// from its full stream.
func (c *Campaign) RunShard(ctx context.Context, k, n, startSeq int, emit ShardEmit, opts ...RunOption) (int, error) {
	if n <= 0 || k < 0 || k >= n {
		return 0, fmt.Errorf("core: invalid shard %d of %d", k, n)
	}
	cfg := c.config(opts)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	fl, feed, err := c.openFeed(cfg)
	if err != nil {
		return 0, err
	}
	targets, err := workerTargets(cfg, c.Target, 1)
	if err != nil {
		return 0, err
	}
	defer releaseTargets(targets)
	st := &shardEmit{emit: emit, startSeq: startSeq, keepGoing: cfg.keepGoing}
	runWorkers(ctx, targets, fl, func(_, _ int, e func(int, scenario.Scenario) bool) (int, error) {
		return feed(k, n, e)
	}, st)
	return st.total, st.result(ctx)
}

// shardEmit is RunShard's stage: one worker, whose records are emitted
// in sequence order as they complete.
type shardEmit struct {
	emit      ShardEmit
	startSeq  int
	keepGoing bool
	total     int
	runErrs
}

// admit counts every sequence the shard owns and runs those at or past
// startSeq.
func (s *shardEmit) admit(seq int) (bool, bool) {
	s.total++
	return seq >= s.startSeq, true
}

func (s *shardEmit) deposit(_, seq int, rec profile.Record, err error) (bool, bool) {
	if eerr := s.emit(seq, rec); eerr != nil {
		s.noteErr(seq, eerr)
		return false, false
	}
	if err != nil && !s.keepGoing {
		s.noteErr(seq, fmt.Errorf("core: scenario %s: %w", rec.ScenarioID, err))
		return true, false
	}
	return true, true
}

func (s *shardEmit) genErr(seq int, err error) { s.noteGenErr(seq, err) }

func (s *shardEmit) stop(err error) {
	if err != nil {
		s.noteErr(math.MaxInt, err)
	}
}
