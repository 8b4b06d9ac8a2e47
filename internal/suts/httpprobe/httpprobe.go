// Package httpprobe is a minimal HTTP/1.x client and server for the
// functional-test fast path of the simulated web servers.
//
// BENCH_6's profile put the net/http probe plumbing — URL parsing,
// header maps, textproto, a reader and a writer goroutine per
// connection — at ~26% of a reload+memnet experiment, all spent
// exchanging one small, fixed GET for one small, fixed response. This
// package replaces both ends with the cheapest correct thing: the
// client prebuilds the request bytes once per probe and keeps one
// connection per address warm across experiments; the server parses
// only the request line and the Host header and answers from reused
// buffers. Steady state (warm connection, successful probe) allocates
// nothing on either side — TestProbeSteadyStateAllocs pins that.
//
// Fidelity is the constraint, not a nice-to-have: resilience profiles
// record probe error text verbatim, so the client words its failures
// exactly as net/http would ("Get \"url\": dial tcp ...: connect:
// connection refused", "status 404" comes from the caller) and the
// server produces byte-identical bodies via the simulators' shared
// renderers. The contract tests in the facade package hold the fast and
// net/http reference paths to the same outcomes and wording.
//
// Scope: HTTP/1.1 keep-alive, Content-Length framing (every simulated
// response carries one), no chunked encoding, no request bodies —
// exactly what the probes exchange.
package httpprobe

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

var (
	crlf     = []byte("\r\n")
	crlfcrlf = []byte("\r\n\r\n")
)

// maxHeaderBytes bounds request and response header accumulation; the
// probes' traffic is a few hundred bytes.
const maxHeaderBytes = 64 << 10

// Probe is one prebuilt GET request: the dial address, the request
// bytes sent verbatim on every run, and the URL string used only for
// error wording.
type Probe struct {
	// Addr is the "host:port" dial address.
	Addr string
	// URL is the request URL, quoted into errors the way net/http's
	// url.Error would.
	URL string

	req []byte
}

// NewProbe prebuilds a GET probe for path on addr. A non-empty host
// overrides the Host header (virtual-host probes); the URL always names
// addr, matching how the net/http path built its requests.
func NewProbe(addr, path, host string) *Probe {
	if host == "" {
		host = addr
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", path, host)
	return &Probe{
		Addr: addr,
		URL:  "http://" + addr + path,
		req:  b.Bytes(),
	}
}

// Client is a connection-reusing probe client. It keeps at most one
// connection (to the last probed address) warm across calls, so a warm
// reload lifecycle pays the dial exactly once per retained listener. A
// Client is used by one campaign worker at a time and is not safe for
// concurrent use.
type Client struct {
	dial    func(addr string) (net.Conn, error)
	timeout time.Duration

	conn     net.Conn
	connAddr string

	rbuf []byte // header accumulation, reused
	body []byte // response body, reused; valid until the next Do
}

// NewClient returns a client dialing through the given function (a
// suts.Transport dial, read per call so the transport can be swapped
// before the first probe). timeout bounds each response wait, like
// http.Client.Timeout; zero means no deadline.
func NewClient(dial func(addr string) (net.Conn, error), timeout time.Duration) *Client {
	return &Client{dial: dial, timeout: timeout}
}

// Do sends the probe and returns the response status and body. The body
// slice is client scratch, valid only until the next Do. Errors carry
// net/http's client wording so recorded probe failures are
// byte-identical to the reference path's.
func (c *Client) Do(p *Probe) (int, []byte, error) {
	if c.conn != nil && c.connAddr != p.Addr {
		c.closeConn()
	}
	reused := c.conn != nil
	if c.conn == nil {
		if err := c.dialTo(p); err != nil {
			return 0, nil, err
		}
	}
	status, body, err := c.roundTrip(p)
	if err != nil && reused {
		// The warm connection went stale (the SUT restarted between
		// experiments, or an idle keep-alive was dropped). GET is
		// idempotent, so retry once on a fresh connection — the same
		// recovery net/http applies to reused connections.
		//
		// A cold lifecycle relies on this: its Stop closes the server's
		// end and leaves the client's open, so the next experiment's
		// first write draws an RST and lands here. Closing the client's
		// end gracefully at Stop instead keeps the bytes the same but
		// leaves one TIME_WAIT socket per started experiment on the
		// SUT's address (9,373 after a 20k cold cell, against none), and
		// ran that cell at 9.2k exp/s against 12.2k on a 2-vCPU VM.
		// TestColdCyclesLeaveNoTimeWait (internal/sutpool) guards it.
		c.closeConn()
		if derr := c.dialTo(p); derr != nil {
			return 0, nil, derr
		}
		status, body, err = c.roundTrip(p)
	}
	if err != nil {
		c.closeConn()
		return 0, nil, c.wrapErr(p, err)
	}
	return status, body, nil
}

func (c *Client) closeConn() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.connAddr = ""
	}
}

// dialTo connects to the probe's address; failures are wrapped with the
// url.Error wording net/http's Get would produce for the same dial
// error.
func (c *Client) dialTo(p *Probe) error {
	conn, err := c.dial(p.Addr)
	if err != nil {
		return fmt.Errorf("Get %q: %w", p.URL, err)
	}
	c.conn = conn
	c.connAddr = p.Addr
	return nil
}

// wrapErr words a round-trip failure the way net/http's client would.
func (c *Client) wrapErr(p *Probe, err error) error {
	var ne net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return fmt.Errorf("Get %q: context deadline exceeded (Client.Timeout exceeded while awaiting headers)", p.URL)
	}
	return fmt.Errorf("Get %q: %w", p.URL, err)
}

// roundTrip writes the probe's prebuilt request and reads one response.
func (c *Client) roundTrip(p *Probe) (int, []byte, error) {
	if c.timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return 0, nil, err
		}
	}
	if _, err := c.conn.Write(p.req); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

// readResponse parses one HTTP/1.x response: status line, the two
// headers the framing depends on (Content-Length, Connection), then the
// body into the reused buffer.
func (c *Client) readResponse() (int, []byte, error) {
	if c.rbuf == nil {
		c.rbuf = make([]byte, 4096)
	}
	buf := c.rbuf
	n, he := 0, -1
	for {
		if i := bytes.Index(buf[:n], crlfcrlf); i >= 0 {
			he = i + 4
			break
		}
		if n == len(buf) {
			if len(buf) >= maxHeaderBytes {
				return 0, nil, errors.New("net/http: HTTP/1.x transport connection broken: response headers exceeded limit")
			}
			nb := make([]byte, len(buf)*2)
			copy(nb, buf[:n])
			buf, c.rbuf = nb, nb
		}
		m, err := c.conn.Read(buf[n:])
		n += m
		if err != nil {
			if err == io.EOF && n > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}

	status, rest, ok := parseStatusLine(buf[:he])
	if !ok {
		line := buf[:he]
		if i := bytes.Index(line, crlf); i >= 0 {
			line = line[:i]
		}
		return 0, nil, fmt.Errorf("net/http: HTTP/1.x transport connection broken: malformed HTTP response %q", line)
	}
	cl := -1
	connClose := false
	for len(rest) > 0 {
		line := rest
		if i := bytes.Index(rest, crlf); i >= 0 {
			line, rest = rest[:i], rest[i+2:]
		} else {
			rest = nil
		}
		if len(line) == 0 {
			continue
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		name, val := line[:colon], trimSpace(line[colon+1:])
		switch {
		case asciiEqualFold(name, "content-length"):
			v, err := strconv.Atoi(string(val))
			if err != nil || v < 0 {
				return 0, nil, fmt.Errorf("net/http: HTTP/1.x transport connection broken: bad Content-Length %q", val)
			}
			cl = v
		case asciiEqualFold(name, "connection"):
			if asciiEqualFold(val, "close") {
				connClose = true
			}
		}
	}

	if cl >= 0 {
		if cap(c.body) < cl {
			c.body = make([]byte, cl)
		}
		body := c.body[:cl]
		have := copy(body, buf[he:n])
		for have < cl {
			m, err := c.conn.Read(body[have:])
			have += m
			if err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return 0, nil, err
			}
		}
		if connClose {
			c.closeConn()
		}
		return status, body, nil
	}

	// No Content-Length: the body runs to connection close (HTTP/1.0
	// framing); the connection is spent afterwards.
	body := append(c.body[:0], buf[he:n]...)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		m, err := c.conn.Read(body[len(body):cap(body)])
		body = body[:len(body)+m]
		if err == io.EOF {
			break
		}
		if err != nil {
			c.body = body
			return 0, nil, err
		}
	}
	c.body = body
	c.closeConn()
	return status, body, nil
}

// parseStatusLine extracts the status code from "HTTP/1.x NNN reason",
// returning the remaining header bytes.
func parseStatusLine(b []byte) (int, []byte, bool) {
	i := bytes.Index(b, crlf)
	if i < 0 {
		return 0, nil, false
	}
	line, rest := b[:i], b[i+2:]
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, false
	}
	line = line[sp+1:]
	if len(line) < 3 {
		return 0, nil, false
	}
	status := 0
	for j := 0; j < 3; j++ {
		c := line[j]
		if c < '0' || c > '9' {
			return 0, nil, false
		}
		status = status*10 + int(c-'0')
	}
	return status, rest, true
}

// trimSpace trims ASCII spaces and tabs (header optional whitespace).
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// asciiEqualFold compares a byte slice against an ASCII string
// case-insensitively without allocating. The protocol elements and
// simulator names it compares are ASCII by construction.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		cb, cs := b[i], s[i]
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if 'A' <= cs && cs <= 'Z' {
			cs += 'a' - 'A'
		}
		if cb != cs {
			return false
		}
	}
	return true
}

// EqualFold is asciiEqualFold exported for the simulators' host
// matching (ASCII-only, allocation-free).
func EqualFold(b []byte, s string) bool { return asciiEqualFold(b, s) }

// HasPrefix reports whether b starts with s without converting either
// side (a non-constant []byte(s) conversion can allocate, which the
// serving path must not).
func HasPrefix(b []byte, s string) bool {
	if len(b) < len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// Handler answers one request: it appends the response body to dst
// (reused across requests on the same connection) and returns the
// extended slice plus the HTTP status code. path and host alias the
// connection's read buffer and must not be retained.
type Handler func(dst []byte, path, host []byte) ([]byte, int)

// NotFound is a Handler with http.NotFound's body and status, the
// placeholder installed between binding a listener and committing a
// routing table.
func NotFound(dst []byte, _, _ []byte) ([]byte, int) {
	return append(dst, "404 page not found\n"...), 404
}

// Server serves prebound listeners with a swappable Handler: a warm
// reload retargets routing in place (SetHandler) without rebinding
// listeners or dropping keep-alive connections, mirroring what the
// net/http swapHandler plumbing did.
type Server struct {
	name string
	h    atomic.Value // Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server identifying itself as name in the Server
// response header and answering with h (NotFound when nil).
func NewServer(name string, h Handler) *Server {
	s := &Server{name: name}
	if h == nil {
		h = NotFound
	}
	s.h.Store(h)
	return s
}

// SetHandler atomically swaps the routing table; in-flight and
// keep-alive connections use the new handler from their next request.
func (s *Server) SetHandler(h Handler) { s.h.Store(h) }

// Serve accepts connections on ln until it is closed. The listener is
// owned by the caller (bound through the SUT's transport and closed by
// its Stop); run Serve in a goroutine per listener — multiple listeners
// may share one Server.
func (s *Server) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close hangs up every live connection and waits for their goroutines;
// listeners must already be closed by the caller. The server is spent
// afterwards.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serveConn answers requests on one connection until it closes. The
// read, body and response buffers live for the connection — under the
// reload lifecycle that is the whole run, so the per-request
// serving path allocates nothing.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		s.wg.Done()
	}()
	buf := make([]byte, 4096)
	var body, resp []byte
	n := 0
	for {
		reqEnd := -1
		for {
			if i := bytes.Index(buf[:n], crlfcrlf); i >= 0 {
				reqEnd = i + 4
				break
			}
			if n == len(buf) {
				if len(buf) >= maxHeaderBytes {
					return
				}
				nb := make([]byte, len(buf)*2)
				copy(nb, buf[:n])
				buf = nb
			}
			m, err := conn.Read(buf[n:])
			n += m
			if err != nil {
				return
			}
		}

		req := buf[:reqEnd]
		lineEnd := bytes.Index(req, crlf)
		sp1 := bytes.IndexByte(req[:lineEnd], ' ')
		if sp1 < 0 {
			return
		}
		sp2 := bytes.IndexByte(req[sp1+1:lineEnd], ' ')
		if sp2 < 0 {
			return
		}
		sp2 += sp1 + 1
		path := req[sp1+1 : sp2]
		keepAlive := bytes.Equal(req[sp2+1:lineEnd], []byte("HTTP/1.1"))

		var host []byte
		connClose := false
		for rest := req[lineEnd+2 : reqEnd-2]; len(rest) > 0; {
			line := rest
			if i := bytes.Index(rest, crlf); i >= 0 {
				line, rest = rest[:i], rest[i+2:]
			} else {
				rest = nil
			}
			colon := bytes.IndexByte(line, ':')
			if colon < 0 {
				continue
			}
			name, val := line[:colon], trimSpace(line[colon+1:])
			switch {
			case asciiEqualFold(name, "host"):
				host = val
			case asciiEqualFold(name, "connection"):
				if asciiEqualFold(val, "close") {
					connClose = true
				}
			}
		}

		h := s.h.Load().(Handler)
		var status int
		body, status = h(body[:0], path, host)

		resp = resp[:0]
		resp = append(resp, "HTTP/1.1 "...)
		resp = appendStatus(resp, status)
		resp = append(resp, crlf...)
		if s.name != "" {
			resp = append(resp, "Server: "...)
			resp = append(resp, s.name...)
			resp = append(resp, crlf...)
		}
		resp = append(resp, "Content-Length: "...)
		resp = strconv.AppendInt(resp, int64(len(body)), 10)
		resp = append(resp, crlf...)
		if !keepAlive || connClose {
			resp = append(resp, "Connection: close\r\n"...)
		}
		resp = append(resp, crlf...)
		resp = append(resp, body...)
		if _, err := conn.Write(resp); err != nil {
			return
		}
		if !keepAlive || connClose {
			return
		}
		n = copy(buf, buf[reqEnd:n])
	}
}

// appendStatus renders "NNN Reason" for the statuses the simulators
// answer with, falling back to the bare code.
func appendStatus(dst []byte, status int) []byte {
	switch status {
	case 200:
		return append(dst, "200 OK"...)
	case 404:
		return append(dst, "404 Not Found"...)
	default:
		dst = strconv.AppendInt(dst, int64(status), 10)
		return append(dst, " "...)
	}
}
