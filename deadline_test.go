package conferr

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conferr/internal/core"
	"conferr/internal/formats"
	"conferr/internal/formats/kv"
	"conferr/internal/profile"
	"conferr/internal/suts"
)

// deadlineTestPort is the primary port of this file's campaigns.
const deadlineTestPort = 23945

// wedgeSUT is a reload-capable simulator whose port appears in its
// configuration, so its campaigns run through the worker port remap. It
// requires directive k1 at startup and its probe requires k2, naming its
// own port in both complaints. The first reload that finds wedgeKey (if
// any) deleted blocks until the phase watchdog has quarantined an
// instance.
type wedgeSUT struct {
	port     int
	wedgeKey string
	wedged   *atomic.Bool // shared by the family: only one reload wedges
	ctrs     *LifecycleCounters

	mu   sync.Mutex
	keys map[string]string // the configuration being served
}

func (s *wedgeSUT) Name() string     { return "wedge" }
func (s *wedgeSUT) DefaultPort() int { return s.port }

func (s *wedgeSUT) DefaultConfig() suts.Files {
	var b strings.Builder
	fmt.Fprintf(&b, "port = %d\n", s.port)
	for i := range 8 {
		fmt.Fprintf(&b, "k%d = v%d\n", i, i)
	}
	return suts.Files{"w.conf": []byte(b.String())}
}

func (s *wedgeSUT) Start(files suts.Files) error  { return s.apply(files, false) }
func (s *wedgeSUT) Reload(files suts.Files) error { return s.apply(files, true) }
func (s *wedgeSUT) Health() error                 { return nil }

func (s *wedgeSUT) Stop() error {
	s.mu.Lock()
	s.keys = nil
	s.mu.Unlock()
	return nil
}

func (s *wedgeSUT) apply(files suts.Files, reload bool) error {
	keys := map[string]string{}
	for _, line := range strings.Split(string(files["w.conf"]), "\n") {
		if k, v, ok := strings.Cut(line, " = "); ok {
			keys[k] = v
		}
	}
	if reload && s.wedgeKey != "" {
		if _, ok := keys[s.wedgeKey]; !ok && s.wedged.CompareAndSwap(false, true) {
			for deadline := time.Now().Add(5 * time.Second); s.ctrs.Quarantines.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if keys["port"] != fmt.Sprint(s.port) {
		return &suts.StartupError{System: "wedge", Msg: fmt.Sprintf("listen port %q, want %d", keys["port"], s.port)}
	}
	if _, ok := keys["k1"]; !ok {
		return &suts.StartupError{System: "wedge", Msg: fmt.Sprintf("k1 is required on port %d", s.port)}
	}
	s.mu.Lock()
	s.keys = keys
	s.mu.Unlock()
	return nil
}

// probe is the functional test: it needs k2.
func (s *wedgeSUT) probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.keys["k2"]; !ok {
		return fmt.Errorf("dial 127.0.0.1:%d: k2 not served", s.port)
	}
	return nil
}

// wedgeFactory builds the family of wedgeSUTs: the primary at its port,
// workers on ports of their own.
func wedgeFactory(wedgeKey string, ctrs *LifecycleCounters) TargetFactory {
	var next atomic.Int32
	wedged := &atomic.Bool{}
	return func(port int) (*SystemTarget, error) {
		if port == 0 {
			port = 41000 + int(next.Add(1))
		}
		s := &wedgeSUT{port: port, wedgeKey: wedgeKey, wedged: wedged, ctrs: ctrs}
		return &SystemTarget{
			Target: &core.Target{
				System:  s,
				Formats: map[string]formats.Format{"w.conf": kv.Format{}},
				Tests:   []suts.Test{{Name: "probe", Run: s.probe}},
			},
			System: s,
		}, nil
	}
}

// TestDeadlinesThroughPooledPortMappedWorkers runs the phase watchdog
// over the facade's pooled, port-mapped workers: the wedged reload alone
// becomes an InfrastructureError, its instance is quarantined, and every
// other record — startup rejections and probe failures naming the port
// among them — equals an unwedged run's.
func TestDeadlinesThroughPooledPortMappedWorkers(t *testing.T) {
	run := func(wedgeKey string, opts ...RunOption) (*Profile, *LifecycleCounters) {
		t.Helper()
		ctrs := &LifecycleCounters{}
		r := &Runner{
			Factory: wedgeFactory(wedgeKey, ctrs), Generator: deleteGen{}, Port: deadlineTestPort,
			Lifecycle: LifecycleReload, PoolCounters: ctrs,
		}
		p, err := r.Run(context.Background(), append([]RunOption{WithParallelism(2)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return p, ctrs
	}
	want, _ := run("")
	got, ctrs := run("k5", WithDeadlines(Deadlines{Phase: 25 * time.Millisecond}))

	if len(got.Records) != len(want.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(want.Records))
	}
	const k = 6 // port, k0..k5: the scenario deleting k5
	counts := want.CountByOutcome()
	if counts[profile.DetectedAtStartup] == 0 || counts[profile.DetectedByTest] == 0 {
		t.Fatalf("unwedged outcomes %v: want startup and probe detections", counts)
	}
	for i, r := range got.Records {
		w := want.Records[i]
		if i == k {
			if r.Outcome != profile.InfrastructureError || !strings.Contains(r.Detail, "watchdog") {
				t.Errorf("record %d = %v %q, want a watchdog InfrastructureError", i, r.Outcome, r.Detail)
			}
			continue
		}
		r.Duration, w.Duration = 0, 0
		if r != w {
			t.Errorf("record %d = %+v, want the unwedged run's %+v", i, r, w)
		}
	}
	if n := ctrs.Quarantines.Load(); n < 1 {
		t.Errorf("quarantines = %d, want at least 1", n)
	}
	for _, r := range want.Records {
		if strings.Contains(r.Detail, "4100") {
			t.Errorf("record %s names a worker port: %q", r.ScenarioID, r.Detail)
		}
	}
}
