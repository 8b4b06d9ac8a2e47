package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"conferr/internal/confnode"
	"conferr/internal/plugins/typo"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/suts"
	"conferr/internal/view"
)

// TestGenerateRejectsDuplicateScenarioIDs is the regression test for the
// silent-collision bug: two scenarios sharing an ID would collide in
// per-scenario reporting and corrupt JSONL dedup/resume.
func TestGenerateRejectsDuplicateScenarioIDs(t *testing.T) {
	scens := []scenario.Scenario{
		{ID: "dup/0", Class: "c", Apply: func(*confnode.Set) error { return nil }},
		{ID: "ok/1", Class: "c", Apply: func(*confnode.Set) error { return nil }},
		{ID: "dup/0", Class: "c", Apply: func(*confnode.Set) error { return nil }},
	}
	for _, workers := range []int{1, 4} {
		opts := []RunOption{WithParallelism(workers)}
		if workers > 1 {
			opts = append(opts, WithTargetFactory(parFactory))
		}
		c := &Campaign{Target: target(&fakeSystem{}), Generator: badGen{scens: scens}}
		prof, err := c.RunContext(context.Background(), opts...)
		if err == nil || err.Error() != `core: plugin bad emitted duplicate ScenarioID "dup/0" (scenario #2)` {
			t.Errorf("workers=%d: err = %v, want duplicate-ScenarioID rejection naming dup/0 at #2", workers, err)
		}
		if len(prof.Records) != 2 {
			t.Errorf("workers=%d: profile holds %d records, want the 2 before the duplicate", workers, len(prof.Records))
		}
	}
}

// TestBaselineMissingFormatError is the regression test for the nil-format
// panic: a Target whose Formats map lost an entry after parse must fail
// with an error naming the file, not a nil-interface dereference.
func TestBaselineMissingFormatError(t *testing.T) {
	tgt := target(&fakeSystem{})
	c := &Campaign{Target: tgt, Generator: &typo.Plugin{}}
	sysSet, err := c.parseInitial()
	if err != nil {
		t.Fatal(err)
	}
	v := c.Generator.View()
	viewSet, err := v.Forward(sysSet)
	if err != nil {
		t.Fatal(err)
	}
	delete(tgt.Formats, "fake.conf")
	fl := &faultload{view: v, viewSet: viewSet, sysSet: sysSet}
	err = fl.prepareFastPath(tgt)
	if err == nil || !strings.Contains(err.Error(), `no format registered for file "fake.conf"`) {
		t.Errorf("err = %v, want a missing-format error naming the file", err)
	}
}

// jitterSystem wraps the fake system with an index-dependent delay so that
// scenario completion order inverts dispatch order — the adversarial case
// for the reassembly stage.
type jitterSystem struct {
	fakeSystem
	n atomic.Int64
}

func (s *jitterSystem) Start(files suts.Files) error {
	// Every 7th experiment stalls, so later sequence numbers routinely
	// complete before earlier ones on the other workers.
	if s.n.Add(1)%7 == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	return s.fakeSystem.Start(files)
}

// TestRunStreamOutOfOrderCompletionKeepsGeneratorOrder is the determinism
// contract of the streaming runner: even when workers complete scenarios
// far out of dispatch order, the sink receives records in exact generator
// order.
func TestRunStreamOutOfOrderCompletionKeepsGeneratorOrder(t *testing.T) {
	gen := &typo.Plugin{}
	want, err := (&Campaign{Target: target(&fakeSystem{}), Generator: gen}).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Records) < 50 {
		t.Fatalf("faultload too small (%d records) to exercise reordering", len(want.Records))
	}
	for _, workers := range []int{2, 4, 8} {
		prof := &profile.Profile{System: "fake", Generator: "typo"}
		c := &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}}
		n, err := c.RunStream(context.Background(), &profile.MemorySink{Profile: prof},
			WithParallelism(workers),
			WithTargetFactory(func() (*Target, error) {
				s := &jitterSystem{}
				return target2(s, &s.fakeSystem), nil
			}))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != len(want.Records) {
			t.Errorf("workers=%d: flushed %d records, want %d", workers, n, len(want.Records))
		}
		if canonical(prof) != canonical(want) {
			t.Errorf("workers=%d: streamed profile diverged from sequential\n%s",
				workers, firstDiffLine(canonical(prof), canonical(want)))
		}
	}
}

// target2 builds the standard fake target around an outer system (the
// jitter wrapper) while pointing the functional test at the embedded
// fakeSystem that actually records state.
func target2(outer suts.System, inner *fakeSystem) *Target {
	tgt := target(inner)
	tgt.System = outer
	return tgt
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(al), len(bl))
}

// TestRunStreamSinkSeesScenarioOrder: a sink that is not shardable gets
// records in scenario order, not completion order, whatever the worker
// count.
func TestRunStreamSinkSeesScenarioOrder(t *testing.T) {
	sink := &recordingSink{t: t}
	c := &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}}
	if _, err := c.RunStream(context.Background(), sink,
		WithParallelism(4), WithTargetFactory(parFactory)); err != nil {
		t.Fatal(err)
	}
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.ids) != len(prof.Records) {
		t.Fatalf("sink saw %d records, profile has %d", len(sink.ids), len(prof.Records))
	}
	for i, r := range prof.Records {
		if sink.ids[i] != r.ScenarioID {
			t.Fatalf("sink order diverged at %d: %s vs %s", i, sink.ids[i], r.ScenarioID)
		}
	}
}

// infiniteGen streams scenarios forever — only a streaming runner with a
// Limit stage can run it at all.
type infiniteGen struct{}

func (infiniteGen) Name() string    { return "infinite" }
func (infiniteGen) View() view.View { return view.StructView{} }
func (infiniteGen) Generate(*confnode.Set) ([]scenario.Scenario, error) {
	return nil, errors.New("infinite faultload cannot be materialized")
}
func (infiniteGen) GenerateStream(*confnode.Set) scenario.Source {
	return func(yield func(scenario.Scenario, error) bool) {
		for i := 0; ; i++ {
			sc := scenario.Scenario{
				ID:    fmt.Sprintf("inf/%d", i),
				Class: "inf",
				Apply: func(*confnode.Set) error { return nil },
			}
			if !yield(sc, nil) {
				return
			}
		}
	}
}

// TestRunStreamBoundedOnUnboundedSource proves the runner pulls lazily: an
// infinite generator behind a Limit terminates with exactly the capped
// record count, which is impossible if anything materializes the stream.
func TestRunStreamBoundedOnUnboundedSource(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tally := &profile.TallySink{}
		c := &Campaign{Target: target(&fakeSystem{}), Generator: LimitGenerator(infiniteGen{}, 5000)}
		opts := []RunOption{WithParallelism(workers)}
		if workers > 1 {
			opts = append(opts, WithTargetFactory(parFactory))
		}
		n, err := c.RunStream(context.Background(), tally, opts...)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := tally.Summary(); n != 5000 || got.Injected+got.NotExpressible+got.Infrastructure != 5000 {
			t.Errorf("workers=%d: flushed %d (tally %+v), want 5000", workers, n, got)
		}
	}
}

// TestRunStreamMidStreamGenerationError: a source failing after k
// scenarios must surface the error while the k completed records are
// already flushed.
func TestRunStreamMidStreamGenerationError(t *testing.T) {
	boom := errors.New("boom mid-stream")
	gen := streamFunc{
		name: "mid-err",
		view: view.StructView{},
		src: func(*confnode.Set) scenario.Source {
			return scenario.Concat(StreamOf(infiniteGen{}, nil).Limit(10), scenario.Fail(boom))
		},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		prof := &profile.Profile{}
		c := &Campaign{Target: target(&fakeSystem{}), Generator: gen}
		opts := []RunOption{WithParallelism(workers)}
		if workers > 1 {
			opts = append(opts, WithTargetFactory(parFactory))
		}
		n, err := c.RunStream(context.Background(), &profile.MemorySink{Profile: prof}, opts...)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if n != 10 || len(prof.Records) != 10 {
			t.Errorf("workers=%d: flushed %d records, want the 10 preceding the error", workers, n)
		}
	}
}

// TestRunStreamInvalidScenarioAborts: a malformed scenario in the stream
// fails the run (checkScenario).
func TestRunStreamInvalidScenarioAborts(t *testing.T) {
	scens := []scenario.Scenario{
		{ID: "ok/0", Class: "c", Apply: func(*confnode.Set) error { return nil }},
		{ID: "bad/1", Class: "", Apply: func(*confnode.Set) error { return nil }},
	}
	c := &Campaign{Target: target(&fakeSystem{}), Generator: badGen{scens: scens}}
	tally := &profile.TallySink{}
	_, err := c.RunStream(context.Background(), tally)
	if err == nil || !strings.Contains(err.Error(), "invalid scenario") {
		t.Errorf("err = %v, want invalid-scenario rejection", err)
	}
}

// TestSuiteRunsMatrixConcurrently: a 2×2 suite over fake targets produces
// per-campaign profiles identical to running each campaign alone, with
// results in suite order.
func TestSuiteRunsMatrix(t *testing.T) {
	mkCampaign := func() *Campaign {
		return &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}}
	}
	want, err := mkCampaign().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{
		Workers: 4,
		Campaigns: []SuiteCampaign{
			{Name: "fake/typo-a", Campaign: mkCampaign(), Options: []RunOption{WithTargetFactory(parFactory)}},
			{Name: "fake/typo-b", Campaign: mkCampaign(), Options: []RunOption{WithTargetFactory(parFactory)}},
			{Name: "fake/typo-c", Campaign: mkCampaign(), Options: []RunOption{WithTargetFactory(parFactory)}},
		},
	}
	res, err := suite.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(res.Results))
	}
	for i, cr := range res.Results {
		if cr.Err != nil {
			t.Fatalf("campaign %d (%s): %v", i, cr.Name, cr.Err)
		}
		if cr.Profile == nil {
			t.Fatalf("campaign %d: nil profile", i)
		}
		if canonical(cr.Profile) != canonical(want) {
			t.Errorf("campaign %s diverged from solo run", cr.Name)
		}
		wantSum := want.Summarize()
		gotSum := cr.Summary
		gotSum.System = wantSum.System
		if gotSum != wantSum {
			t.Errorf("campaign %s summary = %+v, want %+v", cr.Name, gotSum, wantSum)
		}
		if cr.Records != len(want.Records) {
			t.Errorf("campaign %s records = %d, want %d", cr.Name, cr.Records, len(want.Records))
		}
	}
}

// TestSuiteCustomSinkSkipsProfile: a campaign with its own sink keeps no
// in-memory profile but still tallies a summary.
func TestSuiteCustomSink(t *testing.T) {
	tally := &profile.TallySink{}
	suite := &Suite{
		Workers: 2,
		Campaigns: []SuiteCampaign{{
			Name:     "fake/typo",
			Campaign: &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}},
			Options:  []RunOption{WithTargetFactory(parFactory)},
			Sink:     tally,
		}},
	}
	res, err := suite.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Results[0]
	if cr.Profile != nil {
		t.Error("custom-sink campaign retained a profile")
	}
	got := tally.Summary()
	got.System = cr.Summary.System
	if cr.Records == 0 || got != cr.Summary {
		t.Errorf("sink tallied %+v, result says %d records, %+v", got, cr.Records, cr.Summary)
	}
	if cr.Summary.Injected == 0 {
		t.Error("summary not tallied")
	}
}

// TestSuiteAbortsRemainingCampaignsOnFailure: without KeepGoing, one
// failing campaign cancels the rest; with it, the others complete.
func TestSuiteFailurePolicy(t *testing.T) {
	okCampaign := func() SuiteCampaign {
		return SuiteCampaign{
			Name:     "ok",
			Campaign: &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}},
			Options:  []RunOption{WithTargetFactory(parFactory)},
		}
	}
	failing := func() SuiteCampaign {
		scens := []scenario.Scenario{
			{ID: "boom", Class: "c", Apply: func(*confnode.Set) error { return errors.New("boom") }},
		}
		return SuiteCampaign{
			Name:     "failing",
			Campaign: &Campaign{Target: target(&fakeSystem{}), Generator: badGen{scens: scens}},
			Options:  []RunOption{WithTargetFactory(parFactory)},
		}
	}

	// Workers=1 serializes the suite, so the failing first campaign must
	// cancel the second before it starts.
	suite := &Suite{Workers: 1, Campaigns: []SuiteCampaign{failing(), okCampaign()}}
	res, err := suite.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want first campaign's failure", err)
	}
	if res.Results[1].Err == nil {
		t.Error("second campaign ran to completion despite abort policy")
	}

	suite = &Suite{Workers: 1, KeepGoing: true, Campaigns: []SuiteCampaign{failing(), okCampaign()}}
	res, err = suite.Run(context.Background())
	if err == nil {
		t.Error("KeepGoing suite must still report the failure")
	}
	if res.Results[1].Err != nil {
		t.Errorf("KeepGoing: second campaign failed: %v", res.Results[1].Err)
	}
	if res.Results[1].Records == 0 {
		t.Error("KeepGoing: second campaign produced no records")
	}
}

// TestSuiteFirstErrorPrefersRootCause: when a failing campaign cancels
// its siblings, the failure wins over the siblings' context.Canceled even
// when a cancelled campaign sorts earlier in the suite.
func TestSuiteFirstErrorPrefersRootCause(t *testing.T) {
	res := &SuiteResult{Results: []CampaignResult{
		{Name: "early-cancelled", Err: context.Canceled},
		{Name: "root-cause", Err: errors.New("boom")},
	}}
	err := res.FirstError()
	if err == nil || !strings.Contains(err.Error(), "root-cause") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want the root-cause campaign's failure", err)
	}
	onlyCancelled := &SuiteResult{Results: []CampaignResult{
		{Name: "a", Err: context.Canceled},
	}}
	if err := onlyCancelled.FirstError(); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled when nothing else failed", err)
	}
}

// TestGeneratorCombinators covers the stream-composing generator wrappers.
func TestGeneratorCombinators(t *testing.T) {
	fl, all := collectFaultload(t, &Campaign{Target: target(&fakeSystem{}), Generator: &typo.Plugin{}})

	t.Run("limit", func(t *testing.T) {
		g := LimitGenerator(&typo.Plugin{}, 7)
		scens, err := g.Generate(fl.viewSet)
		if err != nil {
			t.Fatal(err)
		}
		if len(scens) != 7 {
			t.Fatalf("limit kept %d, want 7", len(scens))
		}
		for i := range scens {
			if scens[i].ID != all[i].ID {
				t.Errorf("limit reordered: %s vs %s", scens[i].ID, all[i].ID)
			}
		}
	})
	t.Run("sample", func(t *testing.T) {
		g := SampleGenerator(&typo.Plugin{}, 3, 5)
		one, err := g.Generate(fl.viewSet)
		if err != nil {
			t.Fatal(err)
		}
		two, err := SampleGenerator(&typo.Plugin{}, 3, 5).Generate(fl.viewSet)
		if err != nil {
			t.Fatal(err)
		}
		if len(one) != 5 {
			t.Fatalf("sample size = %d, want 5", len(one))
		}
		for i := range one {
			if one[i].ID != two[i].ID {
				t.Errorf("sample not deterministic at %d", i)
			}
		}
	})
	t.Run("repeat", func(t *testing.T) {
		g := RepeatGenerator(&typo.Plugin{}, 3)
		scens, err := g.Generate(fl.viewSet)
		if err != nil {
			t.Fatal(err)
		}
		if len(scens) != 3*len(all) {
			t.Fatalf("repeat emitted %d, want %d", len(scens), 3*len(all))
		}
		if !strings.HasPrefix(scens[0].ID, "r000/") ||
			!strings.HasPrefix(scens[len(all)].ID, "r001/") {
			t.Errorf("round prefixes missing: %s, %s", scens[0].ID, scens[len(all)].ID)
		}
		// Round-prefixed IDs stay campaign-unique.
		seen := map[string]bool{}
		for _, sc := range scens {
			if seen[sc.ID] {
				t.Fatalf("duplicate ID %s", sc.ID)
			}
			seen[sc.ID] = true
		}
	})

}
