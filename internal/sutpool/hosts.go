package sutpool

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
)

// This file leases loopback hosts to kernel-TCP workers. Every worker of
// a parallel campaign serves the primary's port verbatim on a host of
// its own, so siblings never contend for a port, typo'd or not, and a
// worker's listener never meets this process's client sockets, which
// all dial from 127.0.0.1.
//
// Hosts are unique on the machine, not only in the process: two
// processes (say two `sutd -serve` daemons running shards of one
// campaign) serve the same primary port. Each process claims a /16 of
// its own, 127.B.0.0, by holding a listener on 127.B.0.1 for its
// lifetime, and leases the hosts above it, from 127.B.0.2 upward.

// claimPort is the port of the claim listener on 127.B.0.1. No worker
// is ever leased that host, so the port only has to be the same in
// every process.
const claimPort = 65000

// block is one claimed 127.B.0.0/16 and the hosts leased from it.
type block struct {
	b    int
	ln   net.Listener // the claim; kept reachable, or the GC would close it
	mu   sync.Mutex
	used map[int]bool // host offset n, 127.B.n>>8.n&255, is leased
}

// procBlock is this process's block, claimed on the first lease. A
// process never gives it back.
var procBlock = sync.OnceValues(func() (*block, error) {
	return claimBlock(1 + os.Getpid()%255)
})

// claimBlock claims the first free block from 127.start.0.0 on, trying
// every B in 1..255 once.
func claimBlock(start int) (*block, error) {
	for k := range 255 {
		b := 1 + (start-1+k)%255
		ln, err := net.Listen("tcp", fmt.Sprintf("127.%d.0.1:%d", b, claimPort))
		if err == nil {
			return &block{b: b, ln: ln, used: map[int]bool{}}, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			return nil, fmt.Errorf("sutpool: no loopback host for a kernel-TCP worker: %w (serve the SUTs in memory with -memnet)", err)
		}
	}
	return nil, errors.New("sutpool: every loopback host block 127.B.0.0/16 is claimed by another process (serve the SUTs in memory with -memnet)")
}

// lease takes the lowest free host.
func (k *block) lease() (string, int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 2
	for k.used[n] {
		n++
	}
	k.used[n] = true
	return fmt.Sprintf("127.%d.%d.%d", k.b, n>>8, n&255), n
}

// free returns a leased host offset.
func (k *block) free(n int) {
	k.mu.Lock()
	delete(k.used, n)
	k.mu.Unlock()
}

// LeaseHost leases the instance a loopback host of its own, unique on
// the machine, for a worker SUT to serve on (see suts.HostSetter).
// Release frees it. A Shutdown alone does not, since the engine's
// watchdog shuts down an instance it keeps using.
func (i *Instance) LeaseHost() (string, error) {
	k, err := procBlock()
	if err != nil {
		return "", err
	}
	host, n := k.lease()
	i.unlease = func() { k.free(n) }
	return host, nil
}
