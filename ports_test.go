package conferr

import (
	"bytes"
	"context"
	"strconv"
	"sync"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/scenario"
	"conferr/internal/suts"
	"conferr/internal/suts/mysqld"
	"conferr/internal/suts/nginx"
	"conferr/internal/view"
)

// Ports for this file, distinct from every other fixed port in the repo.
const (
	portsTestNginxPort = 23946
	portsTestMySQLPort = 23947
)

// noopGenerator yields n scenarios that change nothing, so every worker
// SUT is handed exactly the engine's cached baseline bytes.
type noopGenerator struct{ n int }

func (noopGenerator) Name() string    { return "noop" }
func (noopGenerator) View() view.View { return view.WordView{} }
func (g noopGenerator) Generate(*confnode.Set) ([]scenario.Scenario, error) {
	out := make([]scenario.Scenario, g.n)
	for i := range out {
		out[i] = scenario.Scenario{
			ID: "noop/" + strconv.Itoa(i), Class: "noop", Description: "no change",
			Apply: func(*confnode.Set) error { return nil },
		}
	}
	return out, nil
}

// fileLog collects the bytes of one configuration file, one entry per
// start or reload of the SUT that owns it.
type fileLog struct {
	mu   sync.Mutex
	name string
	data [][]byte
}

func (l *fileLog) add(files suts.Files) {
	l.mu.Lock()
	l.data = append(l.data, files[l.name])
	l.mu.Unlock()
}

// loggedNginx is the nginx simulator logging what it starts and reloads
// on; every other capability is the simulator's own.
type loggedNginx struct {
	*nginx.Server
	log *fileLog
}

func (s loggedNginx) Start(files suts.Files) error {
	s.log.add(files)
	return s.Server.Start(files)
}

func (s loggedNginx) Reload(files suts.Files) error {
	s.log.add(files)
	return s.Server.Reload(files)
}

func (s loggedNginx) ReloadDirty(files suts.Files, dirty []string) error {
	s.log.add(files)
	return s.Server.ReloadDirty(files, dirty)
}

// loggedMySQL is the (cold-only) mysql simulator logging what it starts
// on.
type loggedMySQL struct {
	*mysqld.Server
	log *fileLog
}

func (s loggedMySQL) Start(files suts.Files) error {
	s.log.add(files)
	return s.Server.Start(files)
}

// builtTarget is one target a logging factory built.
type builtTarget struct {
	port int
	log  *fileLog
}

// loggingFactory wraps f so the engine side of every target it builds
// logs file name; the raw simulator stays the SystemTarget's System, as
// the facade expects. built returns the targets in build order, the
// primary first.
func loggingFactory(f TargetFactory, name string, wrap func(suts.System, *fileLog) suts.System) (tf TargetFactory, built func() []builtTarget) {
	var (
		mu  sync.Mutex
		all []builtTarget
	)
	tf = func(port int) (*SystemTarget, error) {
		st, err := f(port)
		if err != nil {
			return nil, err
		}
		log := &fileLog{name: name}
		t := *st.Target
		t.System = wrap(st.System, log)
		mu.Lock()
		all = append(all, builtTarget{port: portOf(st.System), log: log})
		mu.Unlock()
		return &SystemTarget{Target: &t, System: st.System}, nil
	}
	return tf, func() []builtTarget {
		mu.Lock()
		defer mu.Unlock()
		return append([]builtTarget(nil), all...)
	}
}

// TestMemnetWorkersBindPrimaryPort pins the verbatim path: in a memnet
// reload campaign every worker SUT is built at the primary's port and is
// handed the engine's baseline bytes themselves — the same backing array
// for every worker, with the primary's port in it — not a remapped copy.
func TestMemnetWorkersBindPrimaryPort(t *testing.T) {
	const workers = 4
	tf, built := loggingFactory(InMemoryTransport(NginxTargetAt), nginx.ConfigFile,
		func(sys suts.System, log *fileLog) suts.System {
			return loggedNginx{Server: sys.(*nginx.Server), log: log}
		})
	counters := &LifecycleCounters{}
	r := &Runner{
		Factory: tf, Generator: noopGenerator{n: 200}, Port: portsTestNginxPort,
		Lifecycle: LifecycleReload, PoolCounters: counters,
	}
	if _, err := r.Run(context.Background(), WithParallelism(workers)); err != nil {
		t.Fatal(err)
	}
	if snap := counters.Snapshot(); snap.Reloads == 0 {
		t.Errorf("no reloads (%s)", snap)
	}

	all := built()
	if len(all) != 1+workers {
		t.Fatalf("built %d targets, want the primary and %d workers", len(all), workers)
	}
	var base []byte
	started := 0
	for w, bt := range all[1:] {
		if bt.port != portsTestNginxPort {
			t.Errorf("worker %d: DefaultPort() = %d, want the primary's %d", w, bt.port, portsTestNginxPort)
		}
		if len(bt.log.data) > 0 {
			started++
		}
		for _, data := range bt.log.data {
			if base == nil {
				base = data
				if !bytes.Contains(base, []byte("listen "+strconv.Itoa(portsTestNginxPort))) {
					t.Fatalf("worker %d started on bytes without the primary port:\n%s", w, base)
				}
			}
			if len(data) != len(base) || &data[0] != &base[0] {
				t.Fatalf("worker %d was handed a copy of the baseline bytes, not the engine's slice", w)
			}
		}
	}
	if started < 2 {
		t.Errorf("only %d workers started a SUT; the test needs at least 2", started)
	}
}

// TestKernelTCPWorkersKeepRemap pins the other half: a target without
// suts.TransportSetter (mysql) passes through InMemoryTransport on
// kernel TCP, so its workers still get distinct free ports and start on
// bytes remapped from the primary's port to their own.
func TestKernelTCPWorkersKeepRemap(t *testing.T) {
	const workers = 4
	tf, built := loggingFactory(InMemoryTransport(MySQLTargetAt), mysqld.ConfigFile,
		func(sys suts.System, log *fileLog) suts.System {
			return loggedMySQL{Server: sys.(*mysqld.Server), log: log}
		})
	r := &Runner{Factory: tf, Generator: noopGenerator{n: 40}, Port: portsTestMySQLPort}
	if _, err := r.Run(context.Background(), WithParallelism(workers)); err != nil {
		t.Fatal(err)
	}

	all := built()
	if len(all) != 1+workers {
		t.Fatalf("built %d targets, want the primary and %d workers", len(all), workers)
	}
	started := 0
	seen := map[int]bool{portsTestMySQLPort: true}
	primary := []byte(strconv.Itoa(portsTestMySQLPort))
	for w, bt := range all[1:] {
		if seen[bt.port] {
			t.Errorf("worker %d: port %d is the primary's or another worker's", w, bt.port)
		}
		seen[bt.port] = true
		own := []byte(strconv.Itoa(bt.port))
		started += len(bt.log.data)
		for _, data := range bt.log.data {
			if bytes.Contains(data, primary) || !bytes.Contains(data, own) {
				t.Fatalf("worker %d (port %d) started on unremapped bytes:\n%s", w, bt.port, data)
			}
		}
	}
	if started == 0 {
		t.Error("no worker started a SUT")
	}
}
