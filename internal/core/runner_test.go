package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/plugins/typo"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/suts"
)

// parFactory builds an independent fake target per worker, the way real
// parallel campaigns give each worker its own SUT instance.
func parFactory() (*Target, error) {
	return target(&fakeSystem{}), nil
}

// canonical renders the parts of a profile that must be identical across
// worker counts: identity, order, IDs, classes, outcomes and details
// (durations legitimately differ run to run).
func canonical(p *profile.Profile) string {
	var b strings.Builder
	b.WriteString(p.System + "/" + p.Generator + "\n")
	for _, r := range p.Records {
		b.WriteString(r.ScenarioID + "|" + r.Class + "|" + r.Outcome.String() + "|" + r.Detail + "\n")
	}
	return b.String()
}

// TestRunContextParallelMatchesSequential is the determinism contract of
// the parallel engine: for the same faultload, an N-worker run must
// produce a byte-identical, scenario-ordered profile to the sequential
// run. Run with -race, it also proves the fan-out is data-race free.
func TestRunContextParallelMatchesSequential(t *testing.T) {
	gen := &typo.Plugin{}

	seqCampaign := &Campaign{Target: target(&fakeSystem{}), Generator: gen}
	seq, err := seqCampaign.RunContext(context.Background())
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if len(seq.Records) == 0 {
		t.Fatal("empty sequential faultload")
	}

	for _, workers := range []int{2, 4, 8} {
		parCampaign := &Campaign{Target: target(&fakeSystem{}), Generator: gen}
		par, err := parCampaign.RunContext(context.Background(),
			WithParallelism(workers), WithTargetFactory(parFactory))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := canonical(par), canonical(seq); got != want {
			t.Errorf("workers=%d: profile diverged from sequential run\ngot:\n%s\nwant:\n%s",
				workers, got, want)
		}
		if got, want := par.FormatRecords(), seq.FormatRecords(); got != want {
			t.Errorf("workers=%d: FormatRecords diverged", workers)
		}
	}
}

func TestRunContextParallelRequiresFactory(t *testing.T) {
	c := &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}}
	_, err := c.RunContext(context.Background(), WithParallelism(4))
	if err == nil || !strings.Contains(err.Error(), "target factory") {
		t.Errorf("err = %v, want target-factory requirement", err)
	}
}

// recordingSink keeps the ID of every record written to it and fails the
// test on a concurrent Write. It is not a profile.ShardableSink, so a
// parallel run reaches it through the reassembly ring. When cancelAt > 0
// it calls cancel once that many records are written.
type recordingSink struct {
	t        *testing.T
	mu       sync.Mutex
	inWrite  bool
	ids      []string
	cancelAt int
	cancel   context.CancelFunc
}

func (s *recordingSink) Write(rec profile.Record) error {
	s.mu.Lock()
	if s.inWrite {
		s.mu.Unlock()
		s.t.Error("sink written concurrently")
		return nil
	}
	s.inWrite = true
	s.mu.Unlock()
	s.ids = append(s.ids, rec.ScenarioID)
	if len(s.ids) == s.cancelAt {
		s.cancel()
	}
	s.mu.Lock()
	s.inWrite = false
	s.mu.Unlock()
	return nil
}

func TestRunStreamSinkSerialized(t *testing.T) {
	sink := &recordingSink{t: t}
	c := &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}}
	n, err := c.RunStream(context.Background(), sink,
		WithParallelism(4), WithTargetFactory(parFactory))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != len(sink.ids) {
		t.Errorf("sink saw %d records, run reported %d", len(sink.ids), n)
	}
}

func TestRunContextCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}}
	prof, err := c.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if len(prof.Records) != 0 {
		t.Errorf("records = %d, want 0", len(prof.Records))
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		sink := &recordingSink{t: t, cancelAt: 3, cancel: cancel}
		c := &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}}
		var opts []RunOption
		if workers > 1 {
			opts = append(opts, WithParallelism(workers), WithTargetFactory(parFactory))
		}
		n, err := c.RunStream(ctx, sink, opts...)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The flush front stops at the record whose Write cancelled.
		if n != 3 || len(sink.ids) != 3 {
			t.Errorf("workers=%d: cancellation at record 3 left %d records (%d written)",
				workers, n, len(sink.ids))
		}
	}
}

func TestRunContextParallelAbortsOnInfrastructureError(t *testing.T) {
	scens := []scenario.Scenario{
		{ID: "ok-0", Class: "c", Apply: func(*confnode.Set) error { return nil }},
		{ID: "boom", Class: "c", Apply: func(*confnode.Set) error { return errors.New("boom") }},
		{ID: "ok-1", Class: "c", Apply: func(*confnode.Set) error { return nil }},
	}
	c := &Campaign{Target: target(&fakeSystem{}), Generator: badGen{scens: scens}}
	_, err := c.RunContext(context.Background(),
		WithParallelism(2), WithTargetFactory(parFactory))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want abort carrying the scenario error", err)
	}
}

func TestRunContextParallelKeepGoing(t *testing.T) {
	scens := []scenario.Scenario{
		{ID: "ok-0", Class: "c", Apply: func(*confnode.Set) error { return nil }},
		{ID: "boom", Class: "c", Apply: func(*confnode.Set) error { return errors.New("boom") }},
		{ID: "ok-1", Class: "c", Apply: func(*confnode.Set) error { return nil }},
	}
	c := &Campaign{Target: target(&fakeSystem{}), Generator: badGen{scens: scens}}
	prof, err := c.RunContext(context.Background(),
		WithParallelism(2), WithTargetFactory(parFactory), WithKeepGoing(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Records) != 3 {
		t.Errorf("records = %d, want 3", len(prof.Records))
	}
	// Scenario order survives the fan-out.
	for i, want := range []string{"ok-0", "boom", "ok-1"} {
		if prof.Records[i].ScenarioID != want {
			t.Errorf("record %d = %s, want %s", i, prof.Records[i].ScenarioID, want)
		}
	}
}

func TestRunContextBaselineCheck(t *testing.T) {
	// A target whose functional test always fails must be rejected before
	// any injection when the baseline check is requested.
	sys := &fakeSystem{}
	tgt := target(sys)
	tgt.Tests = append(tgt.Tests, suts.Test{
		Name: "always-fails",
		Run:  func() error { return errors.New("nope") },
	})
	c := &Campaign{Target: tgt, Generator: &typo.Plugin{}}
	prof, err := c.RunContext(context.Background(), WithBaselineCheck())
	if err == nil || !strings.Contains(err.Error(), "always-fails") {
		t.Errorf("err = %v, want baseline failure", err)
	}
	if len(prof.Records) != 0 {
		t.Errorf("records = %d, want 0 (no injection after failed baseline)", len(prof.Records))
	}

	// A healthy target passes the baseline and runs normally.
	c2 := &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}}
	if _, err := c2.RunContext(context.Background(), WithBaselineCheck()); err != nil {
		t.Errorf("healthy baseline: %v", err)
	}
}
