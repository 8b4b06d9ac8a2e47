package sutpool

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestClaimedBlocksNeverOverlap(t *testing.T) {
	start := 1 + (os.Getpid()+128)%255
	a, err := claimBlock(start)
	if err != nil {
		t.Fatal(err)
	}
	defer a.ln.Close()
	b, err := claimBlock(start)
	if err != nil {
		t.Fatal(err)
	}
	defer b.ln.Close()
	if a.b == b.b {
		t.Fatalf("both claims took 127.%d.0.0/16", a.b)
	}
	seen := map[string]bool{}
	for _, k := range []*block{a, b, a, b, a, b} {
		host, _ := k.lease()
		if seen[host] {
			t.Errorf("host %s leased twice", host)
		}
		seen[host] = true
		if prefix := "127." + strconv.Itoa(k.b) + "."; !strings.HasPrefix(host, prefix) {
			t.Errorf("host %s outside its block %s0.0/16", host, prefix)
		}
	}
	if !seen["127."+strconv.Itoa(a.b)+".0.2"] || !seen["127."+strconv.Itoa(a.b)+".0.4"] {
		t.Errorf("leases %v do not start at .0.2, lowest first", seen)
	}
}

// leasedInstance builds a reload-mode instance over a fresh fakeSUT
// that leases a host, recorded in *hosts in lease order.
func leasedInstance(t *testing.T, hosts *[]string) (*Instance, *fakeSUT) {
	t.Helper()
	sys := &fakeSUT{}
	inst := NewInstance(sys, Reload, nil)
	host, err := inst.LeaseHost()
	if err != nil {
		t.Fatal(err)
	}
	*hosts = append(*hosts, host)
	return inst, sys
}

// TestLeasedHostFreedWhenPoolDiscards: Release frees an instance's
// host, so the next leases take the same lowest hosts. A bare Shutdown,
// which the watchdog uses on an instance it keeps using, frees nothing.
func TestLeasedHostFreedWhenPoolDiscards(t *testing.T) {
	var hosts []string
	a, _ := leasedInstance(t, &hosts)
	b, _ := leasedInstance(t, &hosts)
	if hosts[0] == hosts[1] || hosts[0] == "127.0.0.1" {
		t.Fatalf("hosts %v: want two distinct hosts off 127.0.0.1", hosts)
	}

	// a ends its run warm, b cold.
	if err := a.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = a.Stop()
	if err := b.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = b.Shutdown()

	// b's Shutdown keeps its host leased.
	c, _ := leasedInstance(t, &hosts)
	if hosts[2] == hosts[0] || hosts[2] == hosts[1] {
		t.Errorf("host %s leased again after a bare Shutdown", hosts[2])
	}

	for _, inst := range []*Instance{a, b, c} {
		if err := inst.Release(); err != nil {
			t.Fatal(err)
		}
	}
	first := slices.Clone(hosts)
	hosts = hosts[:0]
	for range first {
		inst, _ := leasedInstance(t, &hosts)
		defer inst.Release()
	}
	if !slices.Equal(hosts, first) {
		t.Errorf("after release, leases took %v, want the freed %v", hosts, first)
	}
}

// TestPoolReleaseAfterClose: Release ends an instance's run. It shuts a
// warm SUT down and leaves a cold one (stopped after its last
// experiment) alone; a second Release stops nothing.
func TestPoolReleaseAfterClose(t *testing.T) {
	var hosts []string
	warm, wsys := leasedInstance(t, &hosts)
	cold, csys := leasedInstance(t, &hosts)
	if err := warm.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = warm.Stop()
	if err := cold.Start(someFiles); err != nil {
		t.Fatal(err)
	}
	_ = cold.Shutdown()

	for range 2 {
		for _, inst := range []*Instance{warm, cold} {
			if err := inst.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if wsys.running {
		t.Error("release left the warm instance running")
	}
	if _, stops, _, _ := wsys.counts(); stops != 1 {
		t.Errorf("warm instance stopped %d times, want 1", stops)
	}
	if _, stops, _, _ := csys.counts(); stops != 1 {
		t.Errorf("cold instance stopped %d times, want 1 — release must not stop it again", stops)
	}
}
