package conferr

import (
	"conferr/internal/memnet"
	"conferr/internal/suts"
)

// InMemoryTransport wraps a target factory so every SUT it builds serves
// its listeners — and dials its functional-test probes — over a private
// in-process network (internal/memnet) instead of kernel loopback TCP.
// Each built target gets its own network namespace, so worker SUTs can
// never collide on a port no matter how the faultload typos one: every
// worker of a parallel campaign binds the primary's port verbatim.
// Detection logic behaves identically because memnet words its errors
// exactly like the kernel. Systems that do not implement
// suts.TransportSetter (mysql and the DNS targets) pass through
// unchanged and keep kernel loopback, where each worker serves the
// primary's port on a loopback host of its own.
//
// Profiles are byte-identical to kernel-TCP runs; the wrapper composes
// with every lifecycle mode, so
//
//	r := &Runner{Factory: InMemoryTransport(NginxTargetAt), ...}
//
// runs warm-reload campaigns that never touch a socket.
func InMemoryTransport(f TargetFactory) TargetFactory {
	return func(port int) (*SystemTarget, error) {
		st, err := f(port)
		if err != nil {
			return nil, err
		}
		if ts, ok := st.System.(suts.TransportSetter); ok {
			ts.SetTransport(memnet.New())
		}
		return st, nil
	}
}

// onMemnet reports whether sys serves over an in-process memnet network
// (see InMemoryTransport), where its ports are private to it.
func onMemnet(sys suts.System) bool {
	t, ok := sys.(interface{ Transport() suts.Transport })
	if !ok {
		return false
	}
	_, ok = t.Transport().(*memnet.Network)
	return ok
}
