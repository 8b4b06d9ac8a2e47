package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/formats"
	"conferr/internal/formats/kv"
	"conferr/internal/plugins/typo"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/suts"
	"conferr/internal/template"
	"conferr/internal/view"
)

// fakeSystem is a minimal in-process SUT: its config format is kv; it
// requires directive "port" to equal "1234" to start; the functional test
// fails unless directive "greet" equals "hello".
type fakeSystem struct {
	started   int
	stopped   int
	lastGreet string
	failStart error // non-startup error injected by tests
}

func (f *fakeSystem) Name() string { return "fake" }

func (f *fakeSystem) DefaultConfig() suts.Files {
	return suts.Files{"fake.conf": []byte("port = 1234\ngreet = hello\n")}
}

func (f *fakeSystem) Start(files suts.Files) error {
	if f.failStart != nil {
		return f.failStart
	}
	f.started++
	conf := string(files["fake.conf"])
	f.lastGreet = ""
	port := ""
	for _, line := range strings.Split(conf, "\n") {
		fields := strings.SplitN(line, "=", 2)
		if len(fields) != 2 {
			continue
		}
		k, v := strings.TrimSpace(fields[0]), strings.TrimSpace(fields[1])
		switch k {
		case "port":
			port = v
		case "greet":
			f.lastGreet = v
		default:
			return &suts.StartupError{System: "fake", Msg: "unknown directive " + k}
		}
	}
	if port != "1234" {
		return &suts.StartupError{System: "fake", Msg: "bad port " + port}
	}
	return nil
}

func (f *fakeSystem) Stop() error {
	f.stopped++
	return nil
}

func target(sys suts.System) *Target {
	return &Target{
		System:  sys,
		Formats: map[string]formats.Format{"fake.conf": kv.Format{}},
		Tests: []suts.Test{{
			Name: "greeting",
			Run: func() error {
				fs, ok := sys.(*fakeSystem)
				if !ok {
					return errors.New("wrong system type")
				}
				if fs.lastGreet != "hello" {
					return fmt.Errorf("greet = %q", fs.lastGreet)
				}
				return nil
			},
		}},
	}
}

// baseline runs c's baseline check alone, as WithBaselineCheck does
// before the first scenario.
func baseline(c *Campaign) error {
	fl, err := c.generateBase()
	if err != nil {
		return err
	}
	return c.baselineOn(fl.baseBytes)
}

func TestBaseline(t *testing.T) {
	sys := &fakeSystem{}
	c := &Campaign{Target: target(sys), Generator: &typo.Plugin{}}
	if err := baseline(c); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if sys.started != 1 || sys.stopped != 1 {
		t.Errorf("started=%d stopped=%d", sys.started, sys.stopped)
	}
}

func TestRunTypoCampaign(t *testing.T) {
	sys := &fakeSystem{}
	c := &Campaign{Target: target(sys), Generator: &typo.Plugin{}}
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prof.System != "fake" || prof.Generator != "typo" {
		t.Errorf("profile identity = %q/%q", prof.System, prof.Generator)
	}
	counts := prof.Summarize()
	// Typos in names ("port"->"prt", "greet"->"gret") are unknown
	// directives -> startup detection. Typos in port's value -> bad port.
	// Typos in greet's value -> functional test detection.
	if counts.AtStartup == 0 {
		t.Error("expected startup detections")
	}
	if counts.ByTest == 0 {
		t.Error("expected test detections")
	}
	for _, r := range prof.Records {
		if r.Outcome == profile.NotApplicable {
			t.Errorf("unexpected not-applicable: %+v", r)
		}
	}
	// Start/Stop balanced.
	if sys.started != sys.stopped {
		t.Errorf("started=%d stopped=%d", sys.started, sys.stopped)
	}
	// Every record has an ID and class.
	for _, r := range prof.Records {
		if r.ScenarioID == "" || r.Class == "" {
			t.Errorf("incomplete record %+v", r)
		}
	}
}

// delGen deletes directives on the struct view.
type delGen struct{}

func (delGen) Name() string    { return "del" }
func (delGen) View() view.View { return view.StructView{} }
func (delGen) Generate(s *confnode.Set) ([]scenario.Scenario, error) {
	tpl := &template.DeleteTemplate{Targets: template.OfKind(confnode.KindDirective)}
	return scenario.Collect(tpl.GenerateStream(s))
}

func TestRunStructuralDeletion(t *testing.T) {
	sys := &fakeSystem{}
	c := &Campaign{Target: target(sys), Generator: delGen{}}
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Records) != 2 {
		t.Fatalf("records = %d, want 2 (one per directive)", len(prof.Records))
	}
	// Deleting port -> startup failure; deleting greet -> test failure.
	byID := map[string]profile.Outcome{}
	for _, r := range prof.Records {
		byID[r.Description] = r.Outcome
	}
	found := map[profile.Outcome]bool{}
	for _, o := range byID {
		found[o] = true
	}
	if !found[profile.DetectedAtStartup] || !found[profile.DetectedByTest] {
		t.Errorf("outcomes = %v", byID)
	}
}

// badGen returns scenarios that fail in various ways.
type badGen struct {
	scens []scenario.Scenario
}

func (g badGen) Name() string    { return "bad" }
func (g badGen) View() view.View { return view.StructView{} }
func (g badGen) Generate(*confnode.Set) ([]scenario.Scenario, error) {
	return g.scens, nil
}

func TestRunNotApplicableScenario(t *testing.T) {
	sys := &fakeSystem{}
	g := badGen{scens: []scenario.Scenario{{
		ID: "na", Class: "c",
		Apply: func(*confnode.Set) error {
			return fmt.Errorf("gone: %w", scenario.ErrNotApplicable)
		},
	}}}
	c := &Campaign{Target: target(sys), Generator: g}
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Records[0].Outcome != profile.NotApplicable {
		t.Errorf("outcome = %v", prof.Records[0].Outcome)
	}
}

func TestRunInfrastructureErrorAborts(t *testing.T) {
	sys := &fakeSystem{}
	g := badGen{scens: []scenario.Scenario{
		{ID: "boom", Class: "c", Apply: func(*confnode.Set) error { return errors.New("boom") }},
		{ID: "after", Class: "c", Apply: func(*confnode.Set) error { return nil }},
	}}
	c := &Campaign{Target: target(sys), Generator: g}
	prof, err := c.RunContext(context.Background())
	if err == nil {
		t.Fatal("expected campaign abort")
	}
	if len(prof.Records) != 1 {
		t.Errorf("records = %d, want 1 (abort after first)", len(prof.Records))
	}
}

func TestRunKeepGoing(t *testing.T) {
	sys := &fakeSystem{}
	g := badGen{scens: []scenario.Scenario{
		{ID: "boom", Class: "c", Apply: func(*confnode.Set) error { return errors.New("boom") }},
		{ID: "after", Class: "c", Apply: func(*confnode.Set) error { return nil }},
	}}
	c := &Campaign{Target: target(sys), Generator: g}
	prof, err := c.RunContext(context.Background(), WithKeepGoing(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Records) != 2 {
		t.Errorf("records = %d, want 2", len(prof.Records))
	}
}

func TestRunNonStartupErrorIsInfrastructure(t *testing.T) {
	sys := &fakeSystem{failStart: errors.New("address already in use")}
	g := badGen{scens: []scenario.Scenario{
		{ID: "s", Class: "c", Apply: func(*confnode.Set) error { return nil }},
	}}
	c := &Campaign{Target: target(sys), Generator: g}
	_, err := c.RunContext(context.Background())
	if err == nil {
		t.Fatal("non-startup error should abort the campaign")
	}
	if !strings.Contains(err.Error(), "address already in use") {
		t.Errorf("err = %v", err)
	}
}

// TestRunScenarioAddsFileWithoutFormat: a scenario that introduces a file
// no format is registered for used to deref a nil formats.Format in
// serialization; it must instead be recorded as NotExpressible and the
// campaign must carry on.
func TestRunScenarioAddsFileWithoutFormat(t *testing.T) {
	sys := &fakeSystem{}
	g := badGen{scens: []scenario.Scenario{
		{ID: "orphan-file", Class: "c", Apply: func(s *confnode.Set) error {
			s.Put("orphan.xyz", confnode.New(confnode.KindDocument, "orphan.xyz"))
			return nil
		}},
		{ID: "after", Class: "c", Apply: func(*confnode.Set) error { return nil }},
	}}
	c := &Campaign{Target: target(sys), Generator: g}
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(prof.Records))
	}
	r := prof.Records[0]
	if r.Outcome != profile.NotExpressible {
		t.Errorf("outcome = %v, want not-expressible", r.Outcome)
	}
	if !strings.Contains(r.Detail, "no format registered") || !strings.Contains(r.Detail, "orphan.xyz") {
		t.Errorf("detail = %q, want missing-format explanation", r.Detail)
	}
}

func TestRunMissingFormat(t *testing.T) {
	sys := &fakeSystem{}
	c := &Campaign{
		Target:    &Target{System: sys, Formats: map[string]formats.Format{}},
		Generator: &typo.Plugin{},
	}
	if _, err := c.RunContext(context.Background()); err == nil || !strings.Contains(err.Error(), "no format registered") {
		t.Errorf("err = %v", err)
	}
}

// notExprView round-trips the unmutated configuration but fails every
// scenario's incremental backward transform as inexpressible.
type notExprView struct{ view.StructView }

func (notExprView) IncrementalBackwardInto(_ *confnode.Set, _ []string, _, _ *confnode.Set) (*confnode.Set, error) {
	return nil, fmt.Errorf("nope: %w", view.ErrNotExpressible)
}

type notExprGen struct{ v view.View }

func (notExprGen) Name() string      { return "ne" }
func (g notExprGen) View() view.View { return g.v }
func (notExprGen) Generate(s *confnode.Set) ([]scenario.Scenario, error) {
	return []scenario.Scenario{{ID: "x", Class: "c", Apply: func(*confnode.Set) error { return nil }}}, nil
}

func TestRunNotExpressible(t *testing.T) {
	sys := &fakeSystem{}
	c := &Campaign{Target: target(sys), Generator: notExprGen{notExprView{}}}
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Records[0].Outcome != profile.NotExpressible {
		t.Errorf("outcome = %v", prof.Records[0].Outcome)
	}
	if sys.started != 0 {
		t.Error("SUT must not start for inexpressible faults")
	}
}

// noRoundTripView fails even the unmutated configuration's backward
// transform.
type noRoundTripView struct{ view.StructView }

func (noRoundTripView) Name() string { return "no-round-trip" }

func (noRoundTripView) Backward(_, _ *confnode.Set) (*confnode.Set, error) {
	return nil, fmt.Errorf("nope: %w", view.ErrNotExpressible)
}

// TestRunRefusesViewWithoutRoundTrip: a view that cannot map the
// unmutated configuration back fails the campaign at start, naming the
// view, before any SUT starts.
func TestRunRefusesViewWithoutRoundTrip(t *testing.T) {
	sys := &fakeSystem{}
	c := &Campaign{Target: target(sys), Generator: notExprGen{noRoundTripView{}}}
	prof, err := c.RunContext(context.Background())
	if err == nil || !strings.Contains(err.Error(), "baseline round trip (no-round-trip)") {
		t.Fatalf("err = %v, want a baseline round-trip error naming the view", err)
	}
	if prof != nil && len(prof.Records) != 0 {
		t.Errorf("%d records, want none", len(prof.Records))
	}
	if sys.started != 0 {
		t.Error("SUT started for a campaign refused at start")
	}
}

// stopFailSystem fails on Stop after a successful start.
type stopFailSystem struct {
	fakeSystem
}

func (s *stopFailSystem) Stop() error {
	s.stopped++
	return errors.New("stop failed")
}

// rejectStopFailSystem rejects every configuration and then fails to
// stop.
type rejectStopFailSystem struct {
	stopFailSystem
}

func (s *rejectStopFailSystem) Start(suts.Files) error {
	return &suts.StartupError{System: "fake", Msg: "rejected"}
}

// TestRunStopFailureAfterDetectionIsDetail: a failing Stop after the SUT
// already rejected the configuration is cleanup noise, not an
// infrastructure error — the experiment succeeded. It must be recorded in
// the detail and never abort the campaign.
func TestRunStopFailureAfterDetectionIsDetail(t *testing.T) {
	sys := &rejectStopFailSystem{}
	tgt := &Target{
		System:  sys,
		Formats: map[string]formats.Format{"fake.conf": kv.Format{}},
	}
	g := badGen{scens: []scenario.Scenario{
		{ID: "s1", Class: "c", Apply: func(*confnode.Set) error { return nil }},
		{ID: "s2", Class: "c", Apply: func(*confnode.Set) error { return nil }},
	}}
	c := &Campaign{Target: tgt, Generator: g} // WithKeepGoing defaults to false
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatalf("campaign aborted on post-detection stop failure: %v", err)
	}
	if len(prof.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(prof.Records))
	}
	for _, r := range prof.Records {
		if r.Outcome != profile.DetectedAtStartup {
			t.Errorf("%s outcome = %v, want detected-at-startup", r.ScenarioID, r.Outcome)
		}
		if !strings.Contains(r.Detail, "stop after rejected start") {
			t.Errorf("%s detail = %q, want the stop failure recorded", r.ScenarioID, r.Detail)
		}
	}
}

// TestRunStopFailureIsDetail: a failing Stop after an
// otherwise-successful experiment is cleanup noise like its
// post-rejection sibling above — the campaign keeps going and the
// failure lands in the record's detail, not in an abort.
func TestRunStopFailureIsDetail(t *testing.T) {
	sys := &stopFailSystem{}
	tgt := &Target{
		System:  sys,
		Formats: map[string]formats.Format{"fake.conf": kv.Format{}},
	}
	g := badGen{scens: []scenario.Scenario{
		{ID: "s1", Class: "c", Apply: func(*confnode.Set) error { return nil }},
		{ID: "s2", Class: "c", Apply: func(*confnode.Set) error { return nil }},
	}}
	c := &Campaign{Target: tgt, Generator: g} // WithKeepGoing defaults to false
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatalf("campaign aborted on post-run stop failure: %v", err)
	}
	if len(prof.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(prof.Records))
	}
	for _, r := range prof.Records {
		if r.Outcome != profile.Ignored {
			t.Errorf("%s outcome = %v, want ignored", r.ScenarioID, r.Outcome)
		}
		if !strings.Contains(r.Detail, "stop after run: stop failed") {
			t.Errorf("%s detail = %q, want the stop failure recorded", r.ScenarioID, r.Detail)
		}
	}
}

func TestBaselineFailures(t *testing.T) {
	// Baseline with a failing functional test.
	sys := &fakeSystem{}
	tgt := target(sys)
	tgt.Tests = []suts.Test{{Name: "always-fails", Run: func() error { return errors.New("nope") }}}
	c := &Campaign{Target: tgt, Generator: &typo.Plugin{}}
	if err := baseline(c); err == nil || !strings.Contains(err.Error(), "always-fails") {
		t.Errorf("err = %v", err)
	}
	// Baseline with a config the SUT rejects.
	sys2 := &fakeSystem{}
	tgt2 := target(sys2)
	tgt2.System = rejectAllSystem{sys2}
	c2 := &Campaign{Target: tgt2, Generator: &typo.Plugin{}}
	if err := baseline(c2); err == nil || !strings.Contains(err.Error(), "baseline start") {
		t.Errorf("err = %v", err)
	}
}

// rejectAllSystem rejects every configuration.
type rejectAllSystem struct{ *fakeSystem }

func (s rejectAllSystem) Start(suts.Files) error {
	return &suts.StartupError{System: "reject", Msg: "no"}
}

func TestRunDurationRecorded(t *testing.T) {
	sys := &fakeSystem{}
	c := &Campaign{Target: target(sys), Generator: delGen{}}
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range prof.Records {
		if r.Duration <= 0 {
			t.Errorf("record %s has no duration", r.ScenarioID)
		}
	}
}

// TestGenerateRejectsInvalidScenario: a plugin emitting a malformed
// scenario (here: an empty Class, which would corrupt every per-class
// profile table with a "" bucket) must abort the campaign at generation
// time, before any experiment runs.
func TestGenerateRejectsInvalidScenario(t *testing.T) {
	sys := &fakeSystem{}
	g := badGen{scens: []scenario.Scenario{
		{ID: "classless", Apply: func(*confnode.Set) error { return nil }},
	}}
	c := &Campaign{Target: target(sys), Generator: g}
	prof, err := c.RunContext(context.Background())
	if err == nil || !strings.Contains(err.Error(), "empty Class") {
		t.Fatalf("err = %v, want invalid-scenario abort", err)
	}
	if len(prof.Records) != 0 {
		t.Errorf("records = %d, want 0 (no experiment may run)", len(prof.Records))
	}
	if sys.started != 0 {
		t.Errorf("SUT started %d times for an invalid faultload", sys.started)
	}
}
