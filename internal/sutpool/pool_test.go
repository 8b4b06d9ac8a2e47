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

func TestPoolLeaseReuseAndClose(t *testing.T) {
	var built []*fakeSUT
	p := New(Reload, nil, func(p *Pool) (*Instance, error) {
		sys := &fakeSUT{}
		built = append(built, sys)
		return p.Instance(sys), nil
	})
	inst, err := p.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = inst.Stop()
	if err := inst.Release(); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1 || p.Idle() != 1 {
		t.Fatalf("size=%d idle=%d, want 1/1", p.Size(), p.Idle())
	}

	// The second lease reuses the warm instance: its next Start reloads.
	inst2, err := p.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if inst2 != inst {
		t.Fatal("second lease built a new instance instead of reusing")
	}
	if err := inst2.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	if starts, _, reloads, _ := built[0].counts(); starts != 1 || reloads != 1 {
		t.Errorf("starts=%d reloads=%d, want 1/1 — reuse must stay warm across leases", starts, reloads)
	}
	_ = inst2.Stop()
	if err := inst2.Release(); err != nil {
		t.Fatal(err)
	}

	snap := p.Counters().Snapshot()
	if snap.Leases != 2 || snap.Reuses != 1 {
		t.Errorf("counters %s, want leases=2 reuses=1", snap)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if built[0].running {
		t.Error("close left an idle instance running")
	}
	if _, err := p.Lease(); !errors.Is(err, ErrClosed) {
		t.Errorf("lease on closed pool: err = %v, want ErrClosed", err)
	}
}

func TestPoolQuarantinesDirtyLease(t *testing.T) {
	sys := &fakeSUT{}
	p := New(Reload, nil, func(p *Pool) (*Instance, error) {
		return p.Instance(sys), nil
	})
	inst, _ := p.Lease()
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = inst.Stop() // warm

	// The instance goes bad while leased; returning it must quarantine.
	sys.setHealthErr(errors.New("fake: wedged"))
	if err := inst.Release(); err != nil {
		t.Fatal(err)
	}
	if !sys.running && sys.stops == 0 {
		t.Fatal("quarantine did not stop the dirty instance")
	}
	if p.Idle() != 1 {
		t.Fatalf("idle=%d, want 1 — quarantined instances are reused cold", p.Idle())
	}
	snap := p.Counters().Snapshot()
	if snap.HealthFailures != 1 {
		t.Errorf("counters %s, want health-failures=1", snap)
	}

	// Reuse after quarantine is a cold start, not a reload.
	sys.setHealthErr(nil)
	inst2, _ := p.Lease()
	if err := inst2.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	if starts, _, reloads, _ := sys.counts(); starts != 2 || reloads != 0 {
		t.Errorf("starts=%d reloads=%d, want 2/0 — post-quarantine start must be cold", starts, reloads)
	}
	_ = p.Close()
}

func TestPoolBuildError(t *testing.T) {
	boom := errors.New("no more instances")
	calls := 0
	p := New(Cold, nil, func(p *Pool) (*Instance, error) {
		calls++
		return nil, boom
	})
	if _, err := p.Lease(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want build error through", err)
	}
	if p.Size() != 0 {
		t.Errorf("size=%d, want 0 — failed build must not leak capacity", p.Size())
	}
	if _, err := p.Lease(); !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("second lease: err=%v calls=%d, want a fresh build attempt", err, calls)
	}
}

// TestPoolReleaseAfterClose models a campaign cancelled mid-run: the
// suite tears the pool down while workers still hold leases, and the
// late releases must shut their instances down instead of parking them.
func TestPoolReleaseAfterClose(t *testing.T) {
	sys := &fakeSUT{}
	p := New(Reload, nil, func(p *Pool) (*Instance, error) {
		return p.Instance(sys), nil
	})
	inst, _ := p.Lease()
	if err := inst.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = inst.Stop() // warm while leased
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Release(); err != nil {
		t.Fatal(err)
	}
	if sys.running {
		t.Error("release after close left the instance running")
	}
	if p.Idle() != 0 {
		t.Errorf("idle=%d, want 0 after close", p.Idle())
	}
}

// TestPoolConcurrentLeases hammers Lease/Start/Stop/Release from many
// goroutines; run with -race this is the pool's synchronization proof.
func TestPoolConcurrentLeases(t *testing.T) {
	p := New(Reload, nil, func(p *Pool) (*Instance, error) {
		return p.Instance(&fakeSUT{}), nil
	})
	const goroutines = 8
	const iterations = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				inst, err := p.Lease()
				if err != nil {
					errs <- err
					return
				}
				if err := inst.Start(someFiles); err != nil {
					errs <- err
					return
				}
				if err := inst.Stop(); err != nil {
					errs <- err
					return
				}
				if err := inst.Release(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p.Size() > goroutines {
		t.Errorf("pool built %d instances for %d concurrent workers", p.Size(), goroutines)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	snap := p.Counters().Snapshot()
	if want := int64(goroutines * iterations); snap.Leases != want {
		t.Errorf("leases=%d, want %d", snap.Leases, want)
	}
	if snap.Reuses == 0 {
		t.Error("no reuses across 400 leases — pool never recycled")
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

// Counters returns the pool's shared counters.
func (p *Pool) Counters() *Counters { return p.c }

// Idle returns how many instances are parked.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}
