package conferr

import (
	"context"
	"slices"
	"sync"
	"testing"

	"conferr/internal/core"
	"conferr/internal/formats"
	"conferr/internal/formats/kv"
	"conferr/internal/profile"
	"conferr/internal/suts"
)

// Ports for this file, distinct from every other fixed port in the repo.
const (
	lifecycleTestNginxPort    = 23940
	lifecycleTestRedisPort    = 23941
	lifecycleTestPostgresPort = 23942
	lifecycleTestApachePort   = 23943
	lifecycleTestOwnedPort    = 23945
	lifecycleTestMatrixBase   = 23950 // matrix cells get base+i
)

// TestLifecycleReloadMatchesCold is the facade-level acceptance bar of
// the reload lifecycle: against the real reload-capable simulators, a
// warm-reload campaign must produce profiles byte-identical (scenario
// IDs, classes, outcomes, details) to the cold engine at workers 1, 4
// and 8 — while actually taking the reload path.
func TestLifecycleReloadMatchesCold(t *testing.T) {
	cases := []struct {
		name    string
		factory TargetFactory
		gen     func() Generator
		port    int
	}{
		{"nginx-typo", NginxTargetAt,
			func() Generator {
				return TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 30})
			}, lifecycleTestNginxPort},
		{"redisd-typo", RedisdTargetAt,
			func() Generator {
				return TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 30})
			}, lifecycleTestRedisPort},
		{"postgres-typo", PostgresTargetAt,
			func() Generator {
				return TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 25})
			}, lifecycleTestPostgresPort},
		{"apache-typo", ApacheTargetAt,
			func() Generator {
				return TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 25})
			}, lifecycleTestApachePort},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold := func() string {
				r := &Runner{Factory: tc.factory, Generator: tc.gen(), Port: tc.port}
				p, err := r.Run(context.Background())
				if err != nil {
					t.Fatalf("cold: %v", err)
				}
				if len(p.Records) == 0 {
					t.Fatal("cold: empty profile")
				}
				return canonicalProfile(p)
			}()
			for _, workers := range []int{1, 4, 8} {
				counters := &LifecycleCounters{}
				r := &Runner{
					Factory: tc.factory, Generator: tc.gen(), Port: tc.port,
					Lifecycle: LifecycleReload, PoolCounters: counters,
				}
				p, err := r.Run(context.Background(), WithParallelism(workers))
				if err != nil {
					t.Fatalf("reload workers=%d: %v", workers, err)
				}
				if got := canonicalProfile(p); got != cold {
					t.Errorf("reload workers=%d diverged from cold:\n%s",
						workers, firstDiff(cold, got))
				}
				snap := counters.Snapshot()
				if snap.Reloads == 0 {
					t.Errorf("workers=%d: no reloads — warm path never taken (%s)", workers, snap)
				}
			}
		})
	}
}

// TestLifecycleValidateSemantics pins validate-only mode at the facade:
// startup rejections keep their cold detail, accepted configurations
// become Ignored (no functional probes), and the SUT never boots.
func TestLifecycleValidateSemantics(t *testing.T) {
	gen := func() Generator {
		return TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 30})
	}
	coldProf, err := (&Runner{Factory: NginxTargetAt, Generator: gen(), Port: lifecycleTestNginxPort}).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	counters := &LifecycleCounters{}
	valProf, err := (&Runner{
		Factory: NginxTargetAt, Generator: gen(), Port: lifecycleTestNginxPort,
		Lifecycle: LifecycleValidate, PoolCounters: counters,
	}).Run(context.Background(), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(valProf.Records) != len(coldProf.Records) {
		t.Fatalf("records = %d, want %d", len(valProf.Records), len(coldProf.Records))
	}
	for i, r := range valProf.Records {
		cr := coldProf.Records[i]
		switch cr.Outcome {
		case profile.DetectedAtStartup:
			if r.Outcome != profile.DetectedAtStartup || r.Detail != cr.Detail {
				t.Errorf("%s: validate = (%v, %q), want cold's (%v, %q)",
					r.ScenarioID, r.Outcome, r.Detail, cr.Outcome, cr.Detail)
			}
		case profile.DetectedByTest, profile.Ignored:
			if r.Outcome != profile.Ignored {
				t.Errorf("%s: validate outcome = %v, want ignored", r.ScenarioID, r.Outcome)
			}
		default:
			if r.Outcome != cr.Outcome {
				t.Errorf("%s: validate outcome = %v, want cold's %v",
					r.ScenarioID, r.Outcome, cr.Outcome)
			}
		}
	}
	snap := counters.Snapshot()
	if snap.Validates == 0 {
		t.Errorf("no validates counted (%s)", snap)
	}
	if snap.ColdStarts != 0 {
		t.Errorf("validate mode cold-started the SUT (%s)", snap)
	}
}

// TestLifecycleMatrix runs a small matrix in reload mode end to end —
// the `conferr matrix -lifecycle=reload` path — and checks the per-cell
// profiles match a cold matrix.
func TestLifecycleMatrix(t *testing.T) {
	entries, skipped, err := MatrixEntries(
		[]string{"nginx", "redisd"}, []string{"typo"},
		GeneratorOptions{Seed: DefaultSeed, PerModel: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(entries) != 2 {
		t.Fatalf("entries=%d skipped=%v", len(entries), skipped)
	}
	run := func(mode Lifecycle, c *LifecycleCounters) *SuiteResult {
		res, err := RunMatrix(context.Background(), entries, MatrixOptions{
			Workers: 4, BasePort: lifecycleTestMatrixBase, Lifecycle: mode, PoolCounters: c,
		})
		if err != nil {
			t.Fatalf("%v matrix: %v", mode, err)
		}
		return res
	}
	cold := run(LifecycleCold, nil)
	counters := &LifecycleCounters{}
	warm := run(LifecycleReload, counters)
	for i := range cold.Results {
		cp, wp := cold.Results[i].Profile, warm.Results[i].Profile
		if canonicalProfile(cp) != canonicalProfile(wp) {
			t.Errorf("cell %s: reload matrix diverged:\n%s",
				cold.Results[i].Name, firstDiff(canonicalProfile(cp), canonicalProfile(wp)))
		}
	}
	if snap := counters.Snapshot(); snap.Reloads == 0 {
		t.Errorf("matrix reload mode never reloaded (%s)", snap)
	}
}

// ownedSUT is a reload-capable kernel-TCP fake that moves to a loopback
// host of its own and logs its hosts, starts and stops.
type ownedSUT struct {
	port int
	log  *ownedLog

	mu            sync.Mutex
	starts, stops int
}

// ownedLog collects every ownedSUT a factory built and every host set.
type ownedLog struct {
	mu    sync.Mutex
	suts  []*ownedSUT
	hosts []string
}

func (s *ownedSUT) Name() string              { return "owned" }
func (s *ownedSUT) DefaultPort() int          { return s.port }
func (s *ownedSUT) DefaultConfig() suts.Files { return suts.Files{"o.conf": []byte("a = 1\n")} }
func (s *ownedSUT) Reload(suts.Files) error   { return nil }

func (s *ownedSUT) Start(suts.Files) error {
	s.mu.Lock()
	s.starts++
	s.mu.Unlock()
	return nil
}

func (s *ownedSUT) Stop() error {
	s.mu.Lock()
	s.stops++
	s.mu.Unlock()
	return nil
}

func (s *ownedSUT) SetHost(host string) {
	s.log.mu.Lock()
	s.log.hosts = append(s.log.hosts, host)
	s.log.mu.Unlock()
}

// ownedRun is the log the registered "owned-for-test" target writes to.
var ownedRun = &ownedLog{}

// ownedTargetAt is the "owned-for-test" target: an ownedSUT that logs
// to ownedRun.
func ownedTargetAt(port int) (*SystemTarget, error) {
	sys := &ownedSUT{port: port, log: ownedRun}
	ownedRun.mu.Lock()
	ownedRun.suts = append(ownedRun.suts, sys)
	ownedRun.mu.Unlock()
	return &SystemTarget{
		Target: &core.Target{System: sys, Formats: map[string]formats.Format{"o.conf": kv.Format{}}},
		System: sys,
	}, nil
}

// noopForTest is the "noop-for-test" generator: 16 scenarios that
// change nothing.
func noopForTest(GeneratorOptions) (Generator, error) { return noopGenerator{n: 16}, nil }

// TestMatrixWorkersOwnTheirSUTs: a reload cell over kernel TCP at 4
// workers leaves nothing to clean up when RunMatrix returns. Every
// worker's warm SUT has been stopped exactly once, by the engine's
// release, and a second identical run leases the same four loopback
// hosts, so the first run freed them.
func TestMatrixWorkersOwnTheirSUTs(t *testing.T) {
	registerTargetForTest(t, "owned-for-test", ownedTargetAt)
	registerGeneratorForTest(t, "noop-for-test", noopForTest)
	run := func() []string {
		ownedRun = &ownedLog{}
		entries := []MatrixEntry{{System: "owned-for-test", Plugin: "noop-for-test", Port: lifecycleTestOwnedPort}}
		counters := &LifecycleCounters{}
		if _, err := RunMatrix(context.Background(), entries, MatrixOptions{
			Workers: 4, Lifecycle: LifecycleReload, PoolCounters: counters,
		}); err != nil {
			t.Fatal(err)
		}
		if snap := counters.Snapshot(); snap.ColdStarts != 4 || snap.Reloads != 12 {
			t.Errorf("counters %s, want 4 cold starts and 12 reloads", snap)
		}
		started := 0
		for _, s := range ownedRun.suts {
			if s.starts == 0 {
				continue // the primary, which only generates the faultload
			}
			started++
			if s.starts != 1 || s.stops != 1 {
				t.Errorf("worker SUT started %d and stopped %d times, want 1 and 1", s.starts, s.stops)
			}
		}
		if started != 4 || len(ownedRun.hosts) != 4 {
			t.Fatalf("%d worker SUTs started on hosts %v, want 4 on 4 hosts", started, ownedRun.hosts)
		}
		return ownedRun.hosts
	}
	first := run()
	if again := run(); !slices.Equal(again, first) {
		t.Errorf("second run leased hosts %v, want the first run's freed %v", again, first)
	}
}
