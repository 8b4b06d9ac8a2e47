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

// hostPool is a pool whose every built instance leases a host, recorded
// in build order.
func hostPool(t *testing.T, hosts *[]string) *Pool {
	t.Helper()
	return New(Cold, nil, func(p *Pool) (*Instance, error) {
		inst := p.Instance(&fakeSUT{})
		host, err := inst.LeaseHost()
		if err != nil {
			return nil, err
		}
		*hosts = append(*hosts, host)
		return inst, nil
	})
}

func TestLeasedHostFreedWhenPoolDiscards(t *testing.T) {
	var hosts []string
	p := hostPool(t, &hosts)
	a, err := p.Lease()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if hosts[0] == hosts[1] || hosts[0] == "127.0.0.1" {
		t.Fatalf("hosts %v: want two distinct hosts off 127.0.0.1", hosts)
	}

	// The watchdog's Shutdown keeps the instance in use: its host stays
	// leased.
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}
	q := hostPool(t, &hosts)
	c, err := q.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if hosts[2] == hosts[0] || hosts[2] == hosts[1] {
		t.Errorf("host %s leased again after a bare Shutdown", hosts[2])
	}

	// Released to a closed pool or closed in one, every host is free
	// again: the next leases take the same lowest hosts.
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	first := slices.Clone(hosts)
	hosts = hosts[:0]
	r := hostPool(t, &hosts)
	defer r.Close()
	for range first {
		if _, err := r.Lease(); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(hosts, first) {
		t.Errorf("after close, leases took %v, want the freed %v", hosts, first)
	}
}
