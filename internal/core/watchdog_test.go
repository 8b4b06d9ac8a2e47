package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"conferr/internal/confnode"
	"conferr/internal/formats"
	"conferr/internal/formats/kv"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/sutpool"
	"conferr/internal/suts"
)

// wedgeSystem is the deliberately-hostile SUT of the watchdog tests: it
// blocks inside Start on chosen calls — until a channel closes (a
// permanent wedge) or for a fixed duration (a transient one) — and
// counts every lifecycle call behind a mutex, because a watchdog
// abandonment makes overlap between a stuck call and the teardown
// goroutine part of the contract under test.
type wedgeSystem struct {
	mu     sync.Mutex
	starts int
	stops  int

	wedgeAt  map[int]bool  // 1-based Start calls that wedge
	wedgeDur time.Duration // 0: block until release closes
	release  chan struct{}
}

func (s *wedgeSystem) Name() string { return "wedge" }

func (s *wedgeSystem) DefaultConfig() suts.Files {
	return suts.Files{"w.conf": []byte("key = value\n")}
}

func (s *wedgeSystem) Start(suts.Files) error {
	s.mu.Lock()
	s.starts++
	n := s.starts
	s.mu.Unlock()
	if s.wedgeAt[n] {
		if s.wedgeDur > 0 {
			time.Sleep(s.wedgeDur)
		} else {
			<-s.release
		}
	}
	return nil
}

func (s *wedgeSystem) Stop() error {
	s.mu.Lock()
	s.stops++
	s.mu.Unlock()
	return nil
}

// wedgeScens builds n trivial scenarios (no mutation — every scenario
// reaches Start with the baseline bytes).
func wedgeScens(n int) []scenario.Scenario {
	scens := make([]scenario.Scenario, n)
	for i := range scens {
		scens[i] = scenario.Scenario{
			ID:    fmt.Sprintf("w/%02d", i),
			Class: "wedge",
			Apply: func(*confnode.Set) error { return nil },
		}
	}
	return scens
}

func wedgeTarget(sys suts.System, tests []suts.Test) *Target {
	return &Target{
		System:  sys,
		Formats: map[string]formats.Format{"w.conf": kv.Format{}},
		Tests:   tests,
	}
}

// TestWatchdogPermanentWedgeCannotStallCampaign is the headline
// acceptance test: a SUT that blocks forever in Start must not stall the
// campaign. Every affected experiment times out within its deadline and
// is recorded as an infrastructure error; every scenario keeps its seq.
func TestWatchdogPermanentWedgeCannotStallCampaign(t *testing.T) {
	sys := &wedgeSystem{wedgeAt: map[int]bool{3: true}, release: make(chan struct{})}
	t.Cleanup(func() { close(sys.release) })
	c := &Campaign{Target: wedgeTarget(sys, nil), Generator: sliceGen{wedgeScens(10)}}
	begin := time.Now()
	prof, err := c.RunContext(context.Background(),
		WithDeadlines(Deadlines{Phase: 30 * time.Millisecond}))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("campaign took %v — the wedge stalled it", elapsed)
	}
	if len(prof.Records) != 10 {
		t.Fatalf("records = %d, want 10", len(prof.Records))
	}
	for i, r := range prof.Records {
		if want := fmt.Sprintf("w/%02d", i); r.ScenarioID != want {
			t.Errorf("record %d = %s, want %s (seq order broken)", i, r.ScenarioID, want)
		}
	}
	// Scenarios before the wedge ran normally; the wedged one and every
	// one after it (their phases queue behind the still-stuck Start) are
	// infrastructure errors carrying phase + deadline detail.
	for i, r := range prof.Records {
		if i < 2 {
			if r.Outcome != profile.Ignored {
				t.Errorf("record %d outcome = %v, want ignored", i, r.Outcome)
			}
			continue
		}
		if r.Outcome != profile.InfrastructureError {
			t.Errorf("record %d outcome = %v, want infrastructure-error", i, r.Outcome)
		}
	}
	wedged := prof.Records[2]
	if !strings.Contains(wedged.Detail, "watchdog") || !strings.Contains(wedged.Detail, "start phase") {
		t.Errorf("wedged record detail = %q, want watchdog start-phase timeout", wedged.Detail)
	}
	// Infrastructure errors must not pollute the detection statistics.
	if s := prof.Summarize(); s.Injected != 2 || s.Infrastructure != 8 {
		t.Errorf("summary = %+v, want Injected=2 Infrastructure=8", s)
	}
}

// TestWatchdogTransientWedgeRecovers: a SUT wedged for a bounded time
// loses the affected experiments to the watchdog but serves the rest of
// the campaign normally once the stuck call returns.
func TestWatchdogTransientWedgeRecovers(t *testing.T) {
	sys := &wedgeSystem{wedgeAt: map[int]bool{3: true}, wedgeDur: 150 * time.Millisecond}
	c := &Campaign{Target: wedgeTarget(sys, nil), Generator: sliceGen{wedgeScens(40)}}
	prof, err := c.RunContext(context.Background(),
		WithDeadlines(Deadlines{Phase: 25 * time.Millisecond}))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(prof.Records) != 40 {
		t.Fatalf("records = %d, want 40", len(prof.Records))
	}
	counts := prof.Summarize()
	if counts.Infrastructure == 0 {
		t.Error("expected infrastructure-error records from the transient wedge")
	}
	// The wedge resolves after 150ms; the tail of the campaign must be
	// healthy again.
	if last := prof.Records[len(prof.Records)-1]; last.Outcome != profile.Ignored {
		t.Errorf("final record outcome = %v, want ignored (instance should have recovered)", last.Outcome)
	}
}

// TestWatchdogWedgeHoldsOneRunner: a SUT that stays wedged costs its
// worker one abandoned runner, not one per timed-out phase. Every later
// phase waits on that runner's exit under its own deadline instead of
// queueing a runner of its own behind it.
func TestWatchdogWedgeHoldsOneRunner(t *testing.T) {
	sys := &wedgeSystem{wedgeAt: map[int]bool{1: true}, release: make(chan struct{})}
	t.Cleanup(func() { close(sys.release) })
	c := &Campaign{Target: wedgeTarget(sys, nil), Generator: sliceGen{wedgeScens(200)}}
	before := runtime.NumGoroutine()
	prof, err := c.RunContext(context.Background(),
		WithDeadlines(Deadlines{Phase: 2 * time.Millisecond}))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if n := prof.Summarize().Infrastructure; n != 200 {
		t.Fatalf("infrastructure errors = %d, want 200", n)
	}
	if grew := runtime.NumGoroutine() - before; grew > 5 {
		t.Errorf("goroutines grew by %d over 200 wedged experiments, want at most 5", grew)
	}
}

// TestWatchdogProbeTimeout: a functional test that hangs is charged to
// the harness, not to the SUT — the record is an infrastructure error,
// not detected-by-test.
func TestWatchdogProbeTimeout(t *testing.T) {
	sys := &wedgeSystem{}
	var probes atomic32
	tests := []suts.Test{{Name: "hang", Run: func() error {
		if probes.add(1) == 3 {
			time.Sleep(120 * time.Millisecond)
		}
		return nil
	}}}
	c := &Campaign{Target: wedgeTarget(sys, tests), Generator: sliceGen{wedgeScens(20)}}
	prof, err := c.RunContext(context.Background(),
		WithDeadlines(Deadlines{Phase: 25 * time.Millisecond}))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(prof.Records) != 20 {
		t.Fatalf("records = %d, want 20", len(prof.Records))
	}
	probeInfra := 0
	for _, r := range prof.Records {
		// Experiments queued behind the still-hung probe time out in their
		// start phase; at least the hung one itself must be attributed to
		// the probe.
		if r.Outcome == profile.InfrastructureError && strings.Contains(r.Detail, "probe:hang") {
			probeInfra++
		}
		if r.Outcome == profile.DetectedByTest {
			t.Errorf("record %s detected-by-test — a hung probe is not a SUT detection", r.ScenarioID)
		}
	}
	if probeInfra == 0 {
		t.Error("expected at least one probe-timeout record naming probe:hang")
	}
	if last := prof.Records[len(prof.Records)-1]; last.Outcome != profile.Ignored {
		t.Errorf("final record outcome = %v, want ignored", last.Outcome)
	}
}

// atomic32 is a tiny counter for test closures.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n += d
	return a.n
}

// wedgeReloadSystem is reload-capable; chosen reload calls block for a
// bounded time, driving the watchdog through sutpool's quarantine path.
type wedgeReloadSystem struct {
	wedgeSystem
	reloads   int
	wedgeRel  map[int]bool
	relFail   map[int]bool // reloads that fail with a non-startup error
	healthErr error
}

func (s *wedgeReloadSystem) Reload(suts.Files) error {
	s.mu.Lock()
	s.reloads++
	n := s.reloads
	s.mu.Unlock()
	if s.wedgeRel[n] {
		if s.wedgeDur > 0 {
			time.Sleep(s.wedgeDur)
		} else {
			<-s.release
		}
	}
	if s.relFail[n] {
		return fmt.Errorf("reload wedged the instance")
	}
	return nil
}

func (s *wedgeReloadSystem) Health() error { return s.healthErr }

// TestWatchdogQuarantinesWedgedReload: a reload that exceeds its
// deadline quarantines the pooled instance (Quarantines counter) and the
// campaign recovers through a cold restart once the stuck call returns.
func TestWatchdogQuarantinesWedgedReload(t *testing.T) {
	sys := &wedgeReloadSystem{
		wedgeSystem: wedgeSystem{wedgeDur: 100 * time.Millisecond},
		wedgeRel:    map[int]bool{4: true},
	}
	var ctrs sutpool.Counters
	c := &Campaign{Target: wedgeTarget(sutpool.NewInstance(sys, sutpool.Reload, &ctrs), nil), Generator: sliceGen{wedgeScens(30)}}
	prof, err := c.RunContext(context.Background(),
		WithDeadlines(Deadlines{Phase: 25 * time.Millisecond}))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(prof.Records) != 30 {
		t.Fatalf("records = %d, want 30", len(prof.Records))
	}
	snap := ctrs.Snapshot()
	if snap.Quarantines == 0 {
		t.Errorf("counters = %v, want at least one quarantine", snap)
	}
	if snap.ColdStarts < 2 {
		t.Errorf("counters = %v, want a recovery cold start after the quarantine", snap)
	}
	if last := prof.Records[len(prof.Records)-1]; last.Outcome != profile.Ignored {
		t.Errorf("final record outcome = %v, want ignored (cold restart should recover)", last.Outcome)
	}
}

// TestWatchdogSoakRace hammers the quarantine/restart machinery from
// parallel workers with randomly wedging and failing reloads — run under
// -race in CI, this is the soak for sutpool's recovery paths under
// watchdog pressure.
func TestWatchdogSoakRace(t *testing.T) {
	const scens = 120
	var ctrs sutpool.Counters
	mk := func() (*Target, error) {
		sys := &wedgeReloadSystem{
			wedgeSystem: wedgeSystem{wedgeDur: 8 * time.Millisecond},
			wedgeRel:    map[int]bool{},
			relFail:     map[int]bool{},
		}
		// Deterministic per-worker fault pattern: every 9th reload wedges
		// past the deadline, every 7th fails outright (the Restarts path).
		for i := 1; i <= scens; i++ {
			if i%9 == 0 {
				sys.wedgeRel[i] = true
			}
			if i%7 == 0 {
				sys.relFail[i] = true
			}
		}
		return wedgeTarget(sutpool.NewInstance(sys, sutpool.Reload, &ctrs), nil), nil
	}
	c := &Campaign{Target: wedgeTarget(&wedgeSystem{}, nil), Generator: sliceGen{wedgeScens(scens)}}
	prof, err := c.RunContext(context.Background(),
		WithParallelism(4),
		WithTargetFactory(mk),
		WithDeadlines(Deadlines{Phase: 4 * time.Millisecond, Experiment: 20 * time.Millisecond}))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(prof.Records) != scens {
		t.Fatalf("records = %d, want %d", len(prof.Records), scens)
	}
	for i, r := range prof.Records {
		if want := fmt.Sprintf("w/%02d", i); r.ScenarioID != want {
			t.Fatalf("record %d = %s, want %s", i, r.ScenarioID, want)
		}
	}
	snap := ctrs.Snapshot()
	if snap.Restarts == 0 {
		t.Errorf("counters = %v, want reload-failure restarts", snap)
	}
	t.Logf("soak counters: %v", snap)
}

// panicGen emits scenarios whose Apply panics at a chosen index.
func panicScens(n, panicAt int) []scenario.Scenario {
	scens := wedgeScens(n)
	scens[panicAt].Apply = func(*confnode.Set) error { panic("plugin bug") }
	return scens
}

// TestPanicContainmentKeepGoing: a panicking plugin becomes an
// infrastructure-error record with the stack in its detail, and with
// KeepGoing the campaign runs to completion.
func TestPanicContainmentKeepGoing(t *testing.T) {
	c := &Campaign{Target: wedgeTarget(&wedgeSystem{}, nil), Generator: sliceGen{panicScens(8, 3)}}
	prof, err := c.RunContext(context.Background(), WithKeepGoing(true))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(prof.Records) != 8 {
		t.Fatalf("records = %d, want 8", len(prof.Records))
	}
	r := prof.Records[3]
	if r.Outcome != profile.InfrastructureError {
		t.Fatalf("panicked record outcome = %v, want infrastructure-error", r.Outcome)
	}
	if !strings.Contains(r.Detail, "panic: plugin bug") || !strings.Contains(r.Detail, "goroutine") {
		t.Errorf("panicked record detail = %q, want panic value + stack", r.Detail)
	}
	if prof.Records[7].Outcome != profile.Ignored {
		t.Errorf("record after panic = %v, want ignored", prof.Records[7].Outcome)
	}
}

// TestPanicContainmentAborts: without KeepGoing the panic still does not
// kill the process — the campaign aborts like any infrastructure error,
// with the gap-free contiguous prefix including the failing record.
func TestPanicContainmentAborts(t *testing.T) {
	c := &Campaign{Target: wedgeTarget(&wedgeSystem{}, nil), Generator: sliceGen{panicScens(8, 2)}}
	prof, err := c.RunContext(context.Background())
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want a panic-carrying campaign error", err)
	}
	ids := make([]string, len(prof.Records))
	for i, r := range prof.Records {
		ids[i] = r.ScenarioID
	}
	if fmt.Sprint(ids) != "[w/00 w/01 w/02]" {
		t.Errorf("profile = %v, want contiguous prefix through the failing record", ids)
	}
}

// TestPanicContainmentParallel: the per-experiment boundary holds on the
// sharded parallel path too, and order is preserved.
func TestPanicContainmentParallel(t *testing.T) {
	c := &Campaign{Target: wedgeTarget(&wedgeSystem{}, nil), Generator: sliceGen{panicScens(50, 17)}}
	prof, err := c.RunContext(context.Background(),
		WithParallelism(4),
		WithKeepGoing(true),
		WithTargetFactory(func() (*Target, error) { return wedgeTarget(&wedgeSystem{}, nil), nil }))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(prof.Records) != 50 {
		t.Fatalf("records = %d, want 50", len(prof.Records))
	}
	for i, r := range prof.Records {
		if want := fmt.Sprintf("w/%02d", i); r.ScenarioID != want {
			t.Fatalf("record %d = %s, want %s", i, r.ScenarioID, want)
		}
	}
	if prof.Records[17].Outcome != profile.InfrastructureError {
		t.Errorf("record 17 outcome = %v, want infrastructure-error", prof.Records[17].Outcome)
	}
}

// panicStartSystem panics inside Start on a chosen call — the SUT-side
// per-experiment panic boundary, without any watchdog armed.
type panicStartSystem struct {
	wedgeSystem
	panicAt int
}

func (s *panicStartSystem) Start(files suts.Files) error {
	s.mu.Lock()
	s.starts++
	n := s.starts
	s.mu.Unlock()
	if n == s.panicAt {
		panic("SUT crashed")
	}
	return nil
}

// TestPanicContainmentInSUTStart: a panic inside the SUT itself is
// contained by the per-experiment recover even with no deadlines set.
func TestPanicContainmentInSUTStart(t *testing.T) {
	sys := &panicStartSystem{panicAt: 3}
	c := &Campaign{Target: wedgeTarget(sys, nil), Generator: sliceGen{wedgeScens(8)}}
	prof, err := c.RunContext(context.Background(), WithKeepGoing(true))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(prof.Records) != 8 {
		t.Fatalf("records = %d, want 8", len(prof.Records))
	}
	r := prof.Records[2]
	if r.Outcome != profile.InfrastructureError || !strings.Contains(r.Detail, "SUT crashed") {
		t.Errorf("record 2 = %v %q, want infrastructure-error with panic detail", r.Outcome, r.Detail)
	}
	if prof.Records[7].Outcome != profile.Ignored {
		t.Errorf("record after SUT panic = %v, want ignored", prof.Records[7].Outcome)
	}
}

// TestWatchdogZeroOverheadWhenDisabled: with no deadlines configured no
// worker gets a watchdog, so no phase goroutine can start; with them,
// every worker gets one.
func TestWatchdogZeroOverheadWhenDisabled(t *testing.T) {
	tgt := wedgeTarget(&wedgeSystem{}, nil)
	factory := WithTargetFactory(func() (*Target, error) { return wedgeTarget(&wedgeSystem{}, nil), nil })
	deadlines := WithDeadlines(Deadlines{Phase: time.Second})
	for _, tc := range []struct {
		name    string
		opts    []RunOption
		workers int
		armed   bool
	}{
		{"primary", nil, 1, false},
		{"factory", []RunOption{factory}, 2, false},
		{"primary+deadlines", []RunOption{deadlines}, 1, true},
		{"factory+deadlines", []RunOption{factory, deadlines}, 2, true},
	} {
		c := &Campaign{Target: tgt}
		targets, err := workerTargets(c.config(tc.opts), tgt, tc.workers)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, w := range targets {
			if got := w.wd != nil; got != tc.armed {
				t.Errorf("%s: worker %d has watchdog = %v, want %v", tc.name, i, got, tc.armed)
			}
		}
		releaseTargets(targets)
	}
}
