package suts

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"
)

// Transport abstracts the byte transport between a SUT's listeners and
// the clients that reach it (functional tests, benchmarks). The default
// is kernel loopback TCP; internal/memnet provides a net.Pipe-backed
// in-process alternative so experiments can skip the TCP stack entirely.
type Transport interface {
	// Listen binds a listener on addr ("host:port"). A port conflict must
	// yield an error whose text contains "address already in use".
	Listen(addr string) (net.Listener, error)
	// Dial connects to a listener bound on addr. When nothing listens
	// there the error text must contain "connection refused".
	Dial(addr string) (net.Conn, error)
}

// TransportSetter is implemented by SUTs whose listeners and functional
// tests can be moved onto an alternative Transport. It must be called
// before Start; the transport applies to every subsequent lifecycle.
type TransportSetter interface {
	SetTransport(Transport)
}

// HostSetter is implemented by the network simulators: SetHost moves
// their kernel listeners and their functional tests' dials from
// 127.0.0.1 to another loopback host, so parallel workers each serve the
// configured port verbatim on a host of their own. Their configuration
// and every error they report still name 127.0.0.1 (see
// LoopbackTransport). It must be called before Start and replaces any
// transport set before.
type HostSetter interface {
	SetHost(host string)
}

// Net holds a network simulator's transport. Embedded in a simulator,
// it supplies SetTransport (TransportSetter), SetHost (HostSetter) and
// Transport, which defaults to kernel loopback.
type Net struct {
	tr Transport
}

// SetTransport implements TransportSetter. Must be called before
// Start; it moves both the listeners and the functional tests' dials.
func (n *Net) SetTransport(t Transport) { n.tr = t }

// SetHost implements HostSetter.
func (n *Net) SetHost(host string) { n.tr = LoopbackTransport{Host: host} }

// Transport returns the configured transport, defaulting to kernel
// loopback.
func (n *Net) Transport() Transport {
	if n.tr == nil {
		return LoopbackTransport{}
	}
	return n.tr
}

// FreePort asks the kernel for a port that is free on 127.0.0.1 for
// network ("tcp" or "udp"), the default port of a simulator built with
// New(0).
func FreePort(network string) (int, error) {
	if network == "udp" {
		c, err := net.ListenPacket(network, "127.0.0.1:0")
		if err != nil {
			return 0, fmt.Errorf("allocating port: %w", err)
		}
		defer c.Close()
		return c.LocalAddr().(*net.UDPAddr).Port, nil
	}
	ln, err := net.Listen(network, "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("allocating port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// loopback is the logical host every simulator configures.
const loopback = "127.0.0.1"

// LoopbackTransport is the default Transport: kernel loopback TCP, plus
// UDP for the DNS simulators. Addresses on the logical host 127.0.0.1
// are served on Host instead; the zero value serves them on 127.0.0.1
// itself. Errors name the logical address, so a bind collision or a
// refused dial on Host reads exactly as it would on 127.0.0.1.
type LoopbackTransport struct {
	Host string
}

// dialTimeout bounds Dial, the simulators' historical functional-test
// timeout.
const dialTimeout = 5 * time.Second

// tcpListen binds plain TCP listeners. Go listens with MPTCP by default
// where the kernel enables it, and an MPTCP listen and close cost about
// twice a plain one's, which a cold lifecycle pays on every experiment;
// the simulators and their probes need nothing MPTCP offers.
var tcpListen = func() *net.ListenConfig {
	lc := &net.ListenConfig{}
	lc.SetMultipathTCP(false)
	return lc
}()

// Listen implements Transport.
func (t LoopbackTransport) Listen(addr string) (net.Listener, error) {
	at, moved := t.resolve(addr)
	ln, err := tcpListen.Listen(context.Background(), "tcp", at)
	return ln, logical(err, moved)
}

// Dial implements Transport.
func (t LoopbackTransport) Dial(addr string) (net.Conn, error) {
	at, moved := t.resolve(addr)
	c, err := net.DialTimeout("tcp", at, dialTimeout)
	return c, logical(err, moved)
}

// ListenPacket binds a UDP socket on addr, like Listen.
func (t LoopbackTransport) ListenPacket(addr string) (net.PacketConn, error) {
	at, moved := t.resolve(addr)
	c, err := net.ListenPacket("udp", at)
	return c, logical(err, moved)
}

// DialPacket connects a UDP socket to addr, like Dial.
func (t LoopbackTransport) DialPacket(addr string) (net.Conn, error) {
	at, moved := t.resolve(addr)
	c, err := net.Dial("udp", at)
	return c, logical(err, moved)
}

// resolve maps a logical address to the one the kernel sees, reporting
// whether the host moved.
func (t LoopbackTransport) resolve(addr string) (string, bool) {
	if t.Host == "" || t.Host == loopback {
		return addr, false
	}
	port, ok := strings.CutPrefix(addr, loopback+":")
	if !ok {
		return addr, false
	}
	return t.Host + ":" + port, true
}

// loopbackIP is the logical host as an address.
var loopbackIP = net.IPv4(127, 0, 0, 1)

// logical rewrites the address of a moved socket's error back to the
// logical host, on a copy of the error.
func logical(err error, moved bool) error {
	oe, ok := err.(*net.OpError)
	if !moved || !ok {
		return err
	}
	c := *oe
	switch a := oe.Addr.(type) {
	case *net.TCPAddr:
		c.Addr = &net.TCPAddr{IP: loopbackIP, Port: a.Port}
	case *net.UDPAddr:
		c.Addr = &net.UDPAddr{IP: loopbackIP, Port: a.Port}
	}
	return &c
}
