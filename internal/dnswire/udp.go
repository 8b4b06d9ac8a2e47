package dnswire

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler answers one DNS question, returning the answer and authority
// sections and a response code.
type Handler func(q Question) (answers, authority []RR, rcode RCode)

// Server is a minimal UDP DNS server used by the simulated name servers.
type Server struct {
	handler Handler
	conn    net.PacketConn
	wg      sync.WaitGroup
}

// NewServer returns a server that answers questions with the handler.
func NewServer(h Handler) *Server {
	return &Server{handler: h}
}

// Listen binds the server to a UDP address ("127.0.0.1:0" picks a free
// port) through listen, a transport's UDP listen, and starts serving in
// the background.
func (s *Server) Listen(listen func(addr string) (net.PacketConn, error), addr string) error {
	conn, err := listen(addr)
	if err != nil {
		return fmt.Errorf("dnswire: listen %s: %w", addr, err)
	}
	s.conn = conn
	s.wg.Add(1)
	go s.serve()
	return nil
}

// Addr returns the bound UDP address, valid after Listen.
func (s *Server) Addr() string {
	if s.conn == nil {
		return ""
	}
	return s.conn.LocalAddr().String()
}

// Close stops the server and waits for the serve loop to exit.
func (s *Server) Close() error {
	if s.conn == nil {
		return nil
	}
	err := s.conn.Close()
	s.wg.Wait()
	s.conn = nil
	return err
}

func (s *Server) serve() {
	defer s.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, addr, err := s.conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		req, err := Decode(buf[:n])
		if err != nil || len(req.Questions) == 0 {
			continue
		}
		q := req.Questions[0]
		ans, auth, rcode := s.handler(q)
		resp := &Message{
			ID:               req.ID,
			Response:         true,
			Authoritative:    true,
			RecursionDesired: req.RecursionDesired,
			RCode:            rcode,
			Questions:        []Question{q},
			Answers:          ans,
			Authority:        auth,
		}
		out, err := resp.Encode()
		if err != nil {
			// Fall back to a SERVFAIL with no records.
			resp.Answers, resp.Authority, resp.RCode = nil, nil, RCodeServFail
			out, err = resp.Encode()
			if err != nil {
				continue
			}
		}
		_, _ = s.conn.WriteTo(out, addr)
	}
}

// Query sends a single question to a DNS server over UDP, through dial
// (a transport's UDP dial), and waits for the response.
func Query(dial func(addr string) (net.Conn, error), addr string, name string, t Type, timeout time.Duration) (*Message, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dnswire: dial %s: %w", addr, err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("dnswire: deadline: %w", err)
	}
	req := &Message{
		ID:               uint16(time.Now().UnixNano() & 0xFFFF),
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: t}},
	}
	out, err := req.Encode()
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(out); err != nil {
		return nil, fmt.Errorf("dnswire: send: %w", err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, fmt.Errorf("dnswire: receive: %w", err)
	}
	resp, err := Decode(buf[:n])
	if err != nil {
		return nil, err
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("dnswire: response ID mismatch")
	}
	return resp, nil
}

// ReverseName returns the in-addr.arpa name for a dotted-quad IPv4
// address, e.g. "192.0.2.10" ⇒ "10.2.0.192.in-addr.arpa".
func ReverseName(ip string) (string, error) {
	quad, err := parseIPv4(ip)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa", quad[3], quad[2], quad[1], quad[0]), nil
}
