package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"conferr/internal/profile"
)

// SuiteCampaign is one cell of a campaign suite: a named campaign plus its
// per-campaign options (target factory, keep-going) and an optional
// streaming sink.
type SuiteCampaign struct {
	// Name labels the campaign in the suite result, e.g. "nginx/typo".
	Name string
	// Campaign is the target × generator pair to run.
	Campaign *Campaign
	// Options are appended to the suite's own options for this campaign;
	// campaigns that run with any parallelism (or concurrently with other
	// campaigns of the same system family) need a WithTargetFactory here.
	Options []RunOption
	// Sink, when non-nil, receives the campaign's records as they are
	// produced and the suite keeps no per-record state for this campaign
	// (CampaignResult.Profile stays nil). When nil, records accumulate
	// into CampaignResult.Profile.
	Sink profile.Sink
	// Cleanup, when non-nil, runs after the campaign finishes — success,
	// failure or cancellation alike — releasing per-campaign resources
	// the engine does not own (worker SUTs are released by the engine
	// itself). Its error is reported only when the campaign itself
	// succeeded.
	Cleanup func() error
}

// Suite runs a set of campaigns — typically a target × generator matrix —
// concurrently under one context with a shared worker budget. Every
// campaign streams through the engine's worker loop (Campaign.RunStream),
// so a suite's memory footprint is bounded by its reassembly windows plus
// whatever its sinks retain, not by its faultloads.
type Suite struct {
	// Campaigns lists the suite cells; results come back in the same
	// order.
	Campaigns []SuiteCampaign
	// Workers is the total worker budget shared by the whole suite
	// (0 = GOMAXPROCS). Up to min(len(Campaigns), Workers) campaigns run
	// concurrently, each with an equal share of the budget; each worker
	// owns its own SUT instance.
	Workers int
	// KeepGoing controls behaviour when a campaign fails: when false
	// (default) the remaining campaigns are cancelled; when true they keep
	// running and the failure is reported in its CampaignResult.
	KeepGoing bool
}

// CampaignResult is the outcome of one suite cell.
type CampaignResult struct {
	// Name echoes the SuiteCampaign's label.
	Name string
	// Profile holds the campaign's records, unless a custom Sink consumed
	// them (then nil).
	Profile *profile.Profile
	// Summary tallies the campaign's outcomes — always populated, even
	// when the records streamed to a custom sink.
	Summary profile.Summary
	// Records is the number of records produced.
	Records int
	// Duration is the campaign's wall-clock time.
	Duration time.Duration
	// Err is the campaign's failure, nil on success.
	Err error
}

// SuiteResult aggregates a suite run.
type SuiteResult struct {
	// Results holds one entry per campaign, in Suite.Campaigns order.
	Results []CampaignResult
}

// FirstError returns the first failed campaign's error in suite order,
// preferring root causes: when one campaign's failure cancelled its
// siblings, the failing campaign's error wins over the siblings'
// context.Canceled, whatever their suite order.
func (r *SuiteResult) FirstError() error {
	var cancelled error
	for _, cr := range r.Results {
		if cr.Err == nil {
			continue
		}
		if errors.Is(cr.Err, context.Canceled) || errors.Is(cr.Err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = fmt.Errorf("core: campaign %s: %w", cr.Name, cr.Err)
			}
			continue
		}
		return fmt.Errorf("core: campaign %s: %w", cr.Name, cr.Err)
	}
	return cancelled
}

// Run executes the suite. The result always covers every campaign — on
// failure without KeepGoing, campaigns cancelled before completion carry
// the cancellation in their Err — and the returned error is the first
// campaign failure in suite order, nil when all succeeded.
func (s *Suite) Run(ctx context.Context) (*SuiteResult, error) {
	n := len(s.Campaigns)
	res := &SuiteResult{Results: make([]CampaignResult, n)}
	if n == 0 {
		return res, nil
	}
	budget := s.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	concurrent := n
	if concurrent > budget {
		concurrent = budget
	}
	perCampaign := budget / concurrent
	if perCampaign < 1 {
		perCampaign = 1
	}
	// Distribute the budget remainder: the first budget%concurrent
	// campaigns get one extra worker. At most `concurrent` campaigns run
	// at once and the remainder is < concurrent, so the in-flight worker
	// total never exceeds the budget.
	remainder := budget % concurrent

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The slot is acquired here, in suite order, before the goroutine
	// spawns: campaigns start in declaration order as capacity frees up,
	// which keeps port pressure and abort behaviour predictable.
	sem := make(chan struct{}, concurrent)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range s.Campaigns {
		workers := perCampaign
		if i < remainder {
			workers++
		}
		sem <- struct{}{}
		go func(i, workers int, spec SuiteCampaign) {
			defer wg.Done()
			defer func() { <-sem }()
			res.Results[i] = s.runOne(runCtx, spec, workers)
			if res.Results[i].Err != nil && !s.KeepGoing {
				cancel()
			}
		}(i, workers, s.Campaigns[i])
	}
	wg.Wait()
	return res, res.FirstError()
}

// runOne executes a single suite cell with its share of the budget.
func (s *Suite) runOne(ctx context.Context, spec SuiteCampaign, workers int) CampaignResult {
	cr := CampaignResult{Name: spec.Name}
	if err := ctx.Err(); err != nil {
		cr.Err = err
		return cr
	}
	tally := &profile.TallySink{}
	sinks := profile.MultiSink{tally}
	if spec.Sink != nil {
		sinks = append(sinks, spec.Sink)
	} else {
		cr.Profile = &profile.Profile{
			System:    spec.Campaign.Target.System.Name(),
			Generator: spec.Campaign.Generator.Name(),
		}
		sinks = append(sinks, &profile.MemorySink{Profile: cr.Profile})
	}
	opts := append([]RunOption{WithParallelism(workers)}, spec.Options...)
	start := time.Now()
	records, err := spec.Campaign.RunStream(ctx, sinks, opts...)
	cr.Duration = time.Since(start)
	cr.Records = records
	cr.Summary = tally.Summary()
	cr.Summary.System = spec.Campaign.Target.System.Name()
	cr.Err = err
	if spec.Cleanup != nil {
		if cerr := spec.Cleanup(); cerr != nil && cr.Err == nil {
			cr.Err = fmt.Errorf("core: campaign cleanup: %w", cerr)
		}
	}
	return cr
}
