package sutpool

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"conferr/internal/suts"
)

// fakeSUT is a scriptable lifecycle-capable system: Start/Reload/
// Validate consult per-call error scripts, and every call is counted so
// tests can assert exactly which path an Instance took.
type fakeSUT struct {
	mu        sync.Mutex
	running   bool
	starts    int
	stops     int
	reloads   int
	validates int

	startErr  error // returned by the next Start
	reloadErr error // returned by the next Reload
	healthErr error // returned by Health while set
}

var (
	_ suts.System        = (*fakeSUT)(nil)
	_ suts.Reloader      = (*fakeSUT)(nil)
	_ suts.Validator     = (*fakeSUT)(nil)
	_ suts.HealthChecker = (*fakeSUT)(nil)
)

func (s *fakeSUT) Name() string              { return "fake" }
func (s *fakeSUT) DefaultConfig() suts.Files { return suts.Files{"f.conf": []byte("a = 1\n")} }

func (s *fakeSUT) Start(suts.Files) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.starts++
	if s.startErr != nil {
		err := s.startErr
		s.startErr = nil
		return err
	}
	s.running = true
	return nil
}

func (s *fakeSUT) Reload(suts.Files) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reloads++
	if s.reloadErr != nil {
		err := s.reloadErr
		s.reloadErr = nil
		if !suts.IsStartupError(err) {
			// A wedge kills the instance.
			s.running = false
		}
		return err
	}
	return nil
}

func (s *fakeSUT) Validate(suts.Files) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.validates++
	return nil
}

func (s *fakeSUT) Stop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stops++
	s.running = false
	return nil
}

func (s *fakeSUT) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.healthErr != nil {
		return s.healthErr
	}
	if !s.running {
		return errors.New("fake: not running")
	}
	return nil
}

func (s *fakeSUT) setReloadErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reloadErr = err
}

func (s *fakeSUT) setHealthErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.healthErr = err
}

func (s *fakeSUT) counts() (starts, stops, reloads, validates int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.starts, s.stops, s.reloads, s.validates
}

var someFiles = suts.Files{"f.conf": []byte("a = 2\n")}

func TestInstanceReloadWarmChain(t *testing.T) {
	sys := &fakeSUT{}
	c := &Counters{}
	inst := NewInstance(sys, Reload, c)

	// First experiment: cold start, then the engine's Stop keeps it warm.
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	if err := inst.Stop(); err != nil {
		t.Fatal(err)
	}
	// Second and third experiments ride reloads.
	for i := 0; i < 2; i++ {
		if err := inst.Start(someFiles); err != nil {
			t.Fatal(err)
		}
		if err := inst.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	starts, stops, reloads, _ := sys.counts()
	if starts != 1 || reloads != 2 {
		t.Errorf("starts=%d reloads=%d, want 1 cold start and 2 reloads", starts, reloads)
	}
	if stops != 0 {
		t.Errorf("stops=%d, want 0 — warm instance must keep running", stops)
	}
	snap := c.Snapshot()
	if snap.ColdStarts != 1 || snap.Reloads != 2 {
		t.Errorf("counters %s, want cold-starts=1 reloads=2", snap)
	}
	if err := inst.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if sys.running {
		t.Error("shutdown left the SUT running")
	}
}

func TestInstanceRejectedReloadStaysWarm(t *testing.T) {
	sys := &fakeSUT{}
	inst := NewInstance(sys, Reload, nil)
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = inst.Stop()

	reject := &suts.StartupError{System: "fake", Msg: "bad config"}
	sys.setReloadErr(reject)
	err := inst.Start(someFiles)
	if !suts.IsStartupError(err) {
		t.Fatalf("rejected reload: err = %v, want the startup error through", err)
	}
	_ = inst.Stop()

	// The rejection must not cost the warmth: the next Start reloads.
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	starts, stops, reloads, _ := sys.counts()
	if starts != 1 || reloads != 2 || stops != 0 {
		t.Errorf("starts=%d reloads=%d stops=%d, want 1/2/0 — rejection must stay warm",
			starts, reloads, stops)
	}
}

func TestInstanceWedgedReloadColdRestarts(t *testing.T) {
	sys := &fakeSUT{}
	c := &Counters{}
	inst := NewInstance(sys, Reload, c)
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = inst.Stop()

	sys.setReloadErr(errors.New("fake: reload wedged"))
	// The wedge is invisible to the engine: the same Start call recovers
	// with a cold start on the same files and succeeds.
	if err := inst.Start(someFiles); err != nil {
		t.Fatalf("wedged reload must recover cold, got %v", err)
	}
	starts, stops, reloads, _ := sys.counts()
	if starts != 2 || reloads != 1 || stops != 1 {
		t.Errorf("starts=%d reloads=%d stops=%d, want 2/1/1 — quarantine then cold restart",
			starts, reloads, stops)
	}
	snap := c.Snapshot()
	if snap.Restarts != 1 {
		t.Errorf("counters %s, want restarts=1", snap)
	}
	// Recovery restores the warm chain.
	_ = inst.Stop()
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	if _, _, reloads, _ := sys.counts(); reloads != 2 {
		t.Errorf("reloads=%d, want 2 — recovered instance must be warm again", reloads)
	}
}

func TestInstanceValidateMode(t *testing.T) {
	sys := &fakeSUT{}
	c := &Counters{}
	inst := NewInstance(sys, Validate, c)
	if !inst.SkipProbes() {
		t.Error("validate-mode instance must skip functional probes")
	}
	for i := 0; i < 3; i++ {
		if err := inst.Start(someFiles); err != nil {
			t.Fatal(err)
		}
		if err := inst.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	starts, _, _, validates := sys.counts()
	if starts != 0 || validates != 3 {
		t.Errorf("starts=%d validates=%d, want 0/3 — validate mode must never boot the SUT",
			starts, validates)
	}
	if snap := c.Snapshot(); snap.Validates != 3 || snap.ColdStarts != 0 {
		t.Errorf("counters %s, want validates=3 cold-starts=0", snap)
	}
}

// plainSUT has no lifecycle capabilities at all.
type plainSUT struct{ fakeSUT }

func (s *plainSUT) Reload(suts.Files) error   { panic("not a reloader") }
func (s *plainSUT) Validate(suts.Files) error { panic("not a validator") }

func TestInstanceFallsBackToCold(t *testing.T) {
	// An Instance over a SUT lacking the mode's capability degrades to
	// plain cold cycles. The embedded methods exist but the capability
	// check happens on interface assertion at construction — use a bare
	// system stripped to the core interface.
	type bare struct{ suts.System }
	sys := &fakeSUT{}
	for _, mode := range []Mode{Reload, Validate} {
		inst := NewInstance(bare{sys}, mode, nil)
		if inst.SkipProbes() {
			t.Errorf("mode %v: SkipProbes on a capability-less SUT", mode)
		}
		if err := inst.Start(someFiles); err != nil {
			t.Fatal(err)
		}
		if err := inst.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	starts, stops, reloads, validates := sys.counts()
	if starts != 2 || stops != 2 || reloads != 0 || validates != 0 {
		t.Errorf("starts=%d stops=%d reloads=%d validates=%d, want 2/2/0/0 cold fallback",
			starts, stops, reloads, validates)
	}
}

// TestInstanceStopQuarantinesUnhealthy: a warm instance is health-gated
// after every experiment; one that fails the check is torn down there,
// and the next experiment cold-starts instead of reloading.
func TestInstanceStopQuarantinesUnhealthy(t *testing.T) {
	sys := &fakeSUT{}
	c := &Counters{}
	inst := NewInstance(sys, Reload, c)
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = inst.Stop() // warm

	// The instance goes bad during the next experiment; its Stop must
	// quarantine it.
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	sys.setHealthErr(errors.New("fake: wedged"))
	if err := inst.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, stops, _, _ := sys.counts(); stops != 1 {
		t.Fatalf("stops=%d, want 1 — quarantine must stop the unhealthy instance", stops)
	}
	if snap := c.Snapshot(); snap.HealthFailures != 1 {
		t.Errorf("counters %s, want health-failures=1", snap)
	}

	// The experiment after the quarantine is a cold start, not a reload.
	sys.setHealthErr(nil)
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	if starts, _, reloads, _ := sys.counts(); starts != 2 || reloads != 1 {
		t.Errorf("starts=%d reloads=%d, want 2/1 — post-quarantine start must be cold", starts, reloads)
	}
	if err := inst.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", Cold, true},
		{"cold", Cold, true},
		{"reload", Reload, true},
		{"validate", Validate, true},
		{"warm", 0, false},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseMode(%q) succeeded, want error", c.in)
		}
	}
	for _, m := range []Mode{Cold, Reload, Validate} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v: got %v, %v", m, back, err)
		}
	}
}

func TestCountersSnapshotString(t *testing.T) {
	c := &Counters{}
	c.ColdStarts.Add(2)
	c.Reloads.Add(5)
	s := c.Snapshot()
	if s.ColdStarts != 2 || s.Reloads != 5 {
		t.Fatalf("snapshot = %+v", s)
	}
	str := s.String()
	for _, want := range []string{"cold-starts=2", "reloads=5"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}
