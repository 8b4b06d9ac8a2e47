package conferr

import (
	"bytes"
	"context"
	"errors"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/core"
	"conferr/internal/formats"
	"conferr/internal/formats/kv"
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
	portsTestHostPort  = 23948
)

// noopGenerator yields n scenarios that change nothing, so every worker
// SUT is handed exactly the engine's cached baseline bytes. Worker k of n
// injects k, k+n, …, so every worker starts a SUT whatever the
// scheduling.
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
// start or reload of the SUT that owns it, and the address each
// successful start of a logged mysql bound.
type fileLog struct {
	mu    sync.Mutex
	name  string
	data  [][]byte
	bound []string
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

// loggedMySQL is the (cold-only) mysql simulator logging what it starts
// on.
type loggedMySQL struct {
	*mysqld.Server
	log *fileLog
}

func (s loggedMySQL) Start(files suts.Files) error {
	s.log.add(files)
	err := s.Server.Start(files)
	if err == nil {
		s.log.mu.Lock()
		s.log.bound = append(s.log.bound, s.Server.Addr())
		s.log.mu.Unlock()
	}
	return err
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
// for every worker, with the primary's port in it — not a copy.
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

// TestKernelTCPWorkersServeOwnHost pins the other half: a target
// without suts.TransportSetter (mysql) passes through InMemoryTransport
// onto kernel TCP, and its workers each bind the primary's port on a
// loopback host of their own, starting on the engine's baseline bytes
// themselves.
func TestKernelTCPWorkersServeOwnHost(t *testing.T) {
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
	var base []byte
	started := 0
	hosts := map[string]int{}
	for w, bt := range all[1:] {
		if bt.port != portsTestMySQLPort {
			t.Errorf("worker %d: DefaultPort() = %d, want the primary's %d", w, bt.port, portsTestMySQLPort)
		}
		if len(bt.log.data) == 0 {
			continue
		}
		started++
		host, port, err := net.SplitHostPort(bt.log.bound[0])
		if err != nil {
			t.Fatal(err)
		}
		if port != strconv.Itoa(portsTestMySQLPort) || host == "127.0.0.1" {
			t.Errorf("worker %d bound %s, want the primary's port on a host of its own", w, bt.log.bound[0])
		}
		if prev, dup := hosts[host]; dup {
			t.Errorf("workers %d and %d share host %s", prev, w, host)
		}
		hosts[host] = w
		for i, data := range bt.log.data {
			if bt.log.bound[i] != bt.log.bound[0] {
				t.Errorf("worker %d moved from %s to %s", w, bt.log.bound[0], bt.log.bound[i])
			}
			if base == nil {
				base = data
				if !bytes.Contains(base, []byte("port = "+strconv.Itoa(portsTestMySQLPort))) {
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

// hostSUT is a port-reporting system that binds nothing; it records the
// loopback host each worker is moved to.
type hostSUT struct {
	port  int
	hosts *hostLog
}

type hostLog struct {
	mu    sync.Mutex
	hosts []string
}

func (s *hostSUT) Name() string              { return "hosted" }
func (s *hostSUT) DefaultPort() int          { return s.port }
func (s *hostSUT) DefaultConfig() suts.Files { return suts.Files{"h.conf": []byte("a = 1\n")} }
func (s *hostSUT) Start(suts.Files) error    { return nil }
func (s *hostSUT) Stop() error               { return nil }

// hostedSUT adds suts.HostSetter.
type hostedSUT struct{ hostSUT }

func (s *hostedSUT) SetHost(host string) {
	s.hosts.mu.Lock()
	s.hosts.hosts = append(s.hosts.hosts, host)
	s.hosts.mu.Unlock()
}

// hostFactory builds hostSUTs (with SetHost when hosted), failing the
// build numbered failAt (1 is the primary; 0 never fails).
func hostFactory(hosted bool, failAt int32, log *hostLog) TargetFactory {
	var n atomic.Int32
	return func(port int) (*SystemTarget, error) {
		if n.Add(1) == failAt {
			return nil, errors.New("factory failed")
		}
		var sys suts.System = &hostSUT{port: port, hosts: log}
		if hosted {
			sys = &hostedSUT{hostSUT{port: port, hosts: log}}
		}
		return &SystemTarget{
			Target: &core.Target{System: sys, Formats: map[string]formats.Format{"h.conf": kv.Format{}}},
			System: sys,
		}, nil
	}
}

// TestWorkerHostsFreedAfterRuns pins the lease discipline: a run whose
// second worker fails to build, and a run that completes, both leave
// every host free, so the next run's workers get the same lowest hosts.
func TestWorkerHostsFreedAfterRuns(t *testing.T) {
	run := func(failAt int32) ([]string, error) {
		log := &hostLog{}
		r := &Runner{Factory: hostFactory(true, failAt, log), Generator: noopGenerator{n: 8}, Port: portsTestHostPort}
		_, err := r.Run(context.Background(), WithParallelism(2))
		return log.hosts, err
	}
	failed, err := run(3)
	if err == nil || len(failed) != 1 {
		t.Fatalf("failing run: hosts %v, err %v; want one host and an error", failed, err)
	}
	first, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[0] != failed[0] || first[1] == first[0] {
		t.Errorf("hosts %v after a failed build, want two distinct hosts starting at its freed %s", first, failed[0])
	}
	again, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again, first) {
		t.Errorf("hosts %v after a completed run, want its freed %v", again, first)
	}
}

// TestHostlessSystemRunsOneWorker pins the refusal: a kernel-TCP system
// that reports a port but cannot move to a host of its own runs with one
// worker and fails clearly at a second, never falling back to sharing
// 127.0.0.1.
func TestHostlessSystemRunsOneWorker(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := &Runner{Factory: hostFactory(false, 0, &hostLog{}), Generator: noopGenerator{n: 8}, Port: portsTestHostPort}
		_, err := r.Run(context.Background(), WithParallelism(workers))
		if workers == 1 && err != nil {
			t.Errorf("1 worker: %v", err)
		}
		if workers == 2 && (err == nil || !strings.Contains(err.Error(), "suts.HostSetter")) {
			t.Errorf("2 workers: err = %v, want a refusal naming suts.HostSetter", err)
		}
	}
}
