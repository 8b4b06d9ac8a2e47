package sqlmini

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Wire protocol: the client sends one statement per line. The server
// replies with zero or more "ROW <tab-separated values>" lines followed by
// a terminator line: "OK <affected>" on success or "ERR <message>" on
// failure. A new connection beyond the server's connection limit receives
// "ERR too many connections" and is closed.

// Server serves an Engine over TCP.
type Server struct {
	// MaxConns bounds concurrent client connections; 0 means unlimited.
	MaxConns int

	eng *Engine
	ln  net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewServer returns a server for the engine.
func NewServer(eng *Engine) *Server {
	return &Server{eng: eng, conns: make(map[net.Conn]struct{})}
}

// Listen binds the server to addr ("host:port"; port 0 picks a free one)
// through listen, a transport's TCP listen, and starts accepting
// connections in the background.
func (s *Server) Listen(listen func(addr string) (net.Listener, error), addr string) error {
	ln, err := listen(addr)
	if err != nil {
		return fmt.Errorf("sqlmini: listen %s: %w", addr, err)
	}
	s.Serve(ln)
	return nil
}

// Serve adopts an externally created listener (for example one from an
// in-memory transport) and starts accepting connections in the
// background.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// SetEngine replaces the engine new sessions draw from; established
// sessions keep the engine they started with. A warm configuration
// reload uses it to present the fresh catalog a cold restart would.
func (s *Server) SetEngine(eng *Engine) {
	s.mu.Lock()
	s.eng = eng
	s.mu.Unlock()
}

// SetMaxConns adjusts the connection limit while serving.
func (s *Server) SetMaxConns(n int) {
	s.mu.Lock()
	s.MaxConns = n
	s.mu.Unlock()
}

// engine returns the current engine.
func (s *Server) engine() *Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

// Addr returns the bound address. Only valid after Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, closes all connections and waits for handlers to
// finish.
func (s *Server) Close() error {
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			fmt.Fprintf(conn, "ERR too many connections\n")
			_ = conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	_ = c.Close()
}

func (s *Server) handle(conn net.Conn) {
	sess := s.engine().NewSession()
	sc := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "QUIT") {
			fmt.Fprintf(w, "OK 0\n")
			_ = w.Flush()
			return
		}
		res, err := sess.Exec(line)
		if err != nil {
			fmt.Fprintf(w, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		} else {
			for _, row := range res.Rows {
				fmt.Fprintf(w, "ROW %s\n", strings.Join(row, "\t"))
			}
			fmt.Fprintf(w, "OK %d\n", res.Affected)
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// Client is a wire-protocol client for tests and the functional test
// scripts.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a sqlmini server through dial, a transport's TCP
// dial.
func Dial(dial func(addr string) (net.Conn, error), addr string) (*Client, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("sqlmini: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (from any transport) in a
// Client.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ErrServer wraps an "ERR ..." reply from the server.
var ErrServer = errors.New("sqlmini: server error")

// execTimeout bounds one statement round trip, so functional tests fail
// fast instead of hanging on a wedged server.
const execTimeout = 5 * time.Second

// Exec sends one statement and returns the rows and affected count, or an
// error wrapping ErrServer for "ERR" replies.
func (c *Client) Exec(stmt string) ([][]string, int, error) {
	if err := c.conn.SetDeadline(time.Now().Add(execTimeout)); err != nil {
		return nil, 0, fmt.Errorf("sqlmini: deadline: %w", err)
	}
	if _, err := fmt.Fprintf(c.conn, "%s\n", stmt); err != nil {
		return nil, 0, fmt.Errorf("sqlmini: send: %w", err)
	}
	var rows [][]string
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, 0, fmt.Errorf("sqlmini: read: %w", err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "ROW "):
			rows = append(rows, strings.Split(line[4:], "\t"))
		case strings.HasPrefix(line, "OK"):
			n := 0
			if len(line) > 3 {
				n, _ = strconv.Atoi(strings.TrimSpace(line[3:]))
			}
			return rows, n, nil
		case strings.HasPrefix(line, "ERR "):
			return nil, 0, fmt.Errorf("%w: %s", ErrServer, line[4:])
		default:
			return nil, 0, fmt.Errorf("sqlmini: malformed reply %q", line)
		}
	}
}

// RoundTrip is the paper's database diagnosis script (§5.1): it connects
// to addr through dial, creates a database, then creates a table,
// populates it, and queries it.
func RoundTrip(dial func(addr string) (net.Conn, error), addr string) error {
	c, err := Dial(dial, addr)
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	defer func() { _ = c.Close() }()
	for _, stmt := range []string{
		"CREATE DATABASE conferr_test",
		"USE conferr_test",
		"CREATE TABLE t (id, name)",
		"INSERT INTO t VALUES (1, 'alpha')",
	} {
		if _, _, err := c.Exec(stmt); err != nil {
			return fmt.Errorf("%s: %w", stmt, err)
		}
	}
	rows, _, err := c.Exec("SELECT name FROM t WHERE id = 1")
	if err != nil {
		return fmt.Errorf("select: %w", err)
	}
	if len(rows) != 1 || rows[0][0] != "alpha" {
		return fmt.Errorf("unexpected result %v", rows)
	}
	return nil
}
