// Package memnet provides an in-process network: a namespace of
// listeners connected by buffered duplex pipes (see pipe.go). It
// implements the suts.Transport shape, so simulated SUTs can bind their
// listeners and functional tests can dial them without touching the
// kernel TCP stack — the in-memory transport of the SUT lifecycles.
//
// Listeners are keyed by port alone: the sim binds the port, not the
// interface, so 127.0.0.1:80 and localhost:80 collide just as they do on
// loopback TCP. Error wording matches the kernel's loopback TCP errors
// byte for byte ("listen tcp ...: bind: address already in use",
// "dial tcp ...: connect: connection refused") so profiles recorded over
// the in-memory transport are identical to ones recorded over real
// sockets — the detail equivalence keys on those strings.
package memnet

import (
	"fmt"
	"net"
	"sync"
)

// Network is one private address namespace. Distinct Networks are fully
// isolated: the same port can be bound in each. The zero value is not
// usable; construct with New.
type Network struct {
	// WrapServerConn, when non-nil, wraps the server half of every new
	// connection before the listener hands it out — the fault-injection
	// seam (internal/chaos) for in-process transports. Set it before any
	// traffic flows; it is read without locking.
	WrapServerConn func(net.Conn) net.Conn

	mu        sync.Mutex
	listeners map[int]*listener
	autoPort  int
}

// New returns an empty network.
func New() *Network {
	return &Network{listeners: make(map[int]*listener)}
}

// backlog is the accept queue depth: dials up to this many past the
// accept front complete immediately, like TCP's SYN backlog.
const backlog = 64

// Listen binds a listener on addr's port. Port 0 allocates an unused
// one.
func (n *Network) Listen(addr string) (net.Listener, error) {
	host, port, err := splitAddr(addr)
	if err != nil {
		return nil, fmt.Errorf("listen tcp %s: %v", addr, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if port == 0 {
		for {
			n.autoPort++
			port = autoPortBase + n.autoPort
			if _, taken := n.listeners[port]; !taken {
				break
			}
		}
	} else if _, taken := n.listeners[port]; taken {
		return nil, fmt.Errorf("listen tcp %s: bind: address already in use", addr)
	}
	l := &listener{
		net:  n,
		port: port,
		addr: memAddr(fmt.Sprintf("%s:%d", host, port)),
		ch:   make(chan net.Conn, backlog),
		done: make(chan struct{}),
	}
	n.listeners[port] = l
	return l, nil
}

// Dial connects to the listener bound on addr's port.
func (n *Network) Dial(addr string) (net.Conn, error) {
	_, port, err := splitAddr(addr)
	if err != nil {
		return nil, fmt.Errorf("dial tcp %s: %v", addr, err)
	}
	n.mu.Lock()
	l := n.listeners[port]
	n.mu.Unlock()
	if l == nil {
		return nil, refused(addr)
	}
	client, server := newPipePair(l.addr)
	var sc net.Conn = server
	if n.WrapServerConn != nil {
		sc = n.WrapServerConn(sc)
	}
	select {
	case l.ch <- sc:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, refused(addr)
	}
}

// refused mirrors the kernel's wording for an unbound address.
func refused(addr string) error {
	return fmt.Errorf("dial tcp %s: connect: connection refused", addr)
}

// autoPortBase keeps auto-allocated ports out of the range real
// configurations (and their typo'd mutations) plausibly name.
const autoPortBase = 40000

// splitAddr parses "host:port" with a decimal port.
func splitAddr(addr string) (string, int, error) {
	host, portS, err := net.SplitHostPort(addr)
	if err != nil {
		return "", 0, err
	}
	port := 0
	for _, c := range portS {
		if c < '0' || c > '9' {
			return "", 0, fmt.Errorf("invalid port %q", portS)
		}
		port = port*10 + int(c-'0')
		if port > 1<<20 {
			return "", 0, fmt.Errorf("invalid port %q", portS)
		}
	}
	return host, port, nil
}

// listener accepts pipe connections delivered by Dial.
type listener struct {
	net  *Network
	port int
	addr memAddr
	ch   chan net.Conn

	closeOnce sync.Once
	done      chan struct{}
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "mem", Addr: l.addr, Err: net.ErrClosed}
	}
}

// Close implements net.Listener: it unbinds the port, unblocks Accept
// and pending Dials, and hangs up connections stranded in the backlog.
func (l *listener) Close() error {
	l.closeOnce.Do(func() {
		l.net.mu.Lock()
		if l.net.listeners[l.port] == l {
			delete(l.net.listeners, l.port)
		}
		l.net.mu.Unlock()
		close(l.done)
		for {
			select {
			case c := <-l.ch:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return l.addr }

// memAddr is a net.Addr naming an in-process endpoint.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }
