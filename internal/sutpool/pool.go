package sutpool

import (
	"errors"
	"sync"

	"conferr/internal/suts"
)

// ErrClosed is returned by Lease on a closed pool.
var ErrClosed = errors.New("sutpool: pool is closed")

// BuildFunc constructs a fresh instance set on demand: typically it
// builds a SUT, adapts it with p.Instance, wraps the engine target
// around the adapter and stores it in Instance.Payload. It runs outside
// the pool lock.
type BuildFunc func(p *Pool) (*Instance, error)

// Pool hands leased SUT instances to campaign workers and takes them
// back between runs. Warm instances are health-checked on return and
// stay warm in the idle list — so consecutive campaigns of a suite skip
// even the first cold start. A lease returned dirty (unhealthy) is
// quarantined: torn down on the spot and reused cold.
type Pool struct {
	mode  Mode
	c     *Counters
	build BuildFunc

	mu     sync.Mutex
	idle   []*Instance
	total  int
	closed bool
}

// New returns a pool in the given mode. A nil c gets a private counter
// set shared by every instance the pool builds.
func New(mode Mode, c *Counters, build BuildFunc) *Pool {
	if c == nil {
		c = &Counters{}
	}
	return &Pool{mode: mode, c: c, build: build}
}

// Instance adapts sys to the pool's mode and counters and ties it to
// the pool, so Release returns it here. For use by BuildFuncs.
func (p *Pool) Instance(sys suts.System) *Instance {
	i := NewInstance(sys, p.mode, p.c)
	i.pool = p
	return i
}

// Lease hands out an idle instance, building a fresh one when none is
// available. The caller owns the instance until Release.
func (p *Pool) Lease() (*Instance, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.c.Leases.Add(1)
	if n := len(p.idle); n > 0 {
		inst := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		p.c.Reuses.Add(1)
		return inst, nil
	}
	p.total++
	p.mu.Unlock()
	inst, err := p.build(p)
	if err != nil {
		p.mu.Lock()
		p.total--
		p.mu.Unlock()
		return nil, err
	}
	inst.pool = p
	return inst, nil
}

// retire is Release's pool half: health-check, quarantine if dirty, and
// park on the idle list (or shut down when the pool is closed). Only
// warm instances are gated — a validate-mode or cold-fallback instance
// has nothing running to check.
func (p *Pool) retire(inst *Instance) error {
	if inst.warm.Load() {
		inst.healthGate()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return inst.discard()
	}
	p.idle = append(p.idle, inst)
	p.mu.Unlock()
	return nil
}

// Size returns how many instances the pool has built and not lost.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// Close shuts down every idle instance and marks the pool closed:
// further leases fail with ErrClosed, and instances released later are
// shut down instead of parked. It returns the first shutdown error.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	var first error
	for _, inst := range idle {
		if err := inst.discard(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
