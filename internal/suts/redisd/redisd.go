// Package redisd implements a simulated Redis server: a real TCP server
// speaking the inline form of the Redis protocol, whose configuration
// parser models the documented startup behaviour of redis-server over
// redis.conf — a flat "name value…" file that rides ConfErr's existing kv
// codec unchanged, demonstrating the paper's claim that profiling a new
// system needs only a SUT adapter when the format is already covered
// (§3.2).
package redisd

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"conferr/internal/suts"
)

// ConfigFile is the logical name of the simulator's configuration file.
const ConfigFile = "redis.conf"

// Server is the simulated Redis daemon. The embedded suts.Net carries
// its transport.
type Server struct {
	suts.Net
	port int

	mu        sync.Mutex
	ln        net.Listener
	curPort   int
	databases int
	wg        sync.WaitGroup

	dataMu sync.Mutex
	data   map[string]string
}

var _ suts.System = (*Server)(nil)
var _ suts.Addressable = (*Server)(nil)
var _ suts.Reloader = (*Server)(nil)
var _ suts.DirtyReloader = (*Server)(nil)
var _ suts.Validator = (*Server)(nil)
var _ suts.HealthChecker = (*Server)(nil)
var _ suts.TransportSetter = (*Server)(nil)
var _ suts.HostSetter = (*Server)(nil)

// New returns a simulator whose default configuration listens on the
// given TCP port (0 picks a free one at construction time).
func New(port int) (*Server, error) {
	var err error
	if port == 0 {
		if port, err = suts.FreePort("tcp"); err != nil {
			return nil, fmt.Errorf("redisd: %w", err)
		}
	}
	return &Server{port: port}, nil
}

// Name implements suts.System.
func (s *Server) Name() string { return "redis-sim" }

// DefaultPort returns the port of the default configuration.
func (s *Server) DefaultPort() int { return s.port }

// DefaultConfig implements suts.System: a configuration modeled on the
// stock redis.conf — flat space-separated directives, repeated "save"
// lines, size values with units, and enum-valued parameters.
func (s *Server) DefaultConfig() suts.Files {
	conf := fmt.Sprintf(`# Redis configuration (simulated)
bind 127.0.0.1
port %d
timeout 0
tcp-keepalive 300
tcp-backlog 511
daemonize no
loglevel notice
logfile /var/log/redis/redis.log
databases 16

save 900 1
save 300 10
save 60 10000
stop-writes-on-bgsave-error yes
rdbcompression yes
dbfilename dump.rdb
dir /var/lib/redis

maxclients 10000
maxmemory 256mb
maxmemory-policy allkeys-lru

appendonly no
appendfsync everysec
slowlog-log-slower-than 10000
slowlog-max-len 128
`, s.port)
	return suts.Files{ConfigFile: []byte(conf)}
}

// config is the effective configuration.
type config struct {
	port      int
	databases int
}

// check parses a configuration without touching listener state. Errors
// carry redis-server's fatal-config wording.
func (s *Server) check(files suts.Files) (config, error) {
	data, ok := files[ConfigFile]
	if !ok {
		return config{}, &suts.StartupError{System: s.Name(), Msg: "missing " + ConfigFile}
	}
	cfg, err := parseConfig(string(data))
	if err != nil {
		return config{}, &suts.StartupError{System: s.Name(), Msg: err.Error()}
	}
	return cfg, nil
}

// Start implements suts.System.
func (s *Server) Start(files suts.Files) error { return s.configure(files) }

// Reload implements suts.Reloader: it applies a new configuration to the
// running server. A configuration error is rejected with Start's exact
// wording and the previous configuration keeps serving; a port change
// binds the new port before releasing the old one. The dataset resets
// exactly as a cold restart would, keeping profiles mode-independent.
func (s *Server) Reload(files suts.Files) error { return s.configure(files) }

// configure drives the server to the given configuration from whatever
// is currently bound — a fresh listener for a cold start or a port
// change, none otherwise — and resets the dataset. On error the
// previous state is untouched (nothing bound for a cold start).
func (s *Server) configure(files suts.Files) error {
	cfg, err := s.check(files)
	if err != nil {
		return err
	}
	s.mu.Lock()
	old := s.ln
	samePort := old != nil && s.curPort == cfg.port
	s.mu.Unlock()
	if !samePort {
		ln, err := s.listen(cfg.port)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.ln = ln
		s.curPort = cfg.port
		s.mu.Unlock()
		if old != nil {
			_ = old.Close()
		}
		s.acceptOn(ln)
	}
	s.mu.Lock()
	s.databases = cfg.databases
	s.mu.Unlock()
	s.resetData()
	return nil
}

// ReloadDirty is Reload; the dirty set is ignored. Nothing in the
// program calls it. It stays because the benchmark's capability table
// (bench/wrap.go) lists suts.DirtyReloader.
func (s *Server) ReloadDirty(files suts.Files, _ []string) error { return s.Reload(files) }

// Validate implements suts.Validator: parse and check only, the
// `redis-server --test-config` idiom. Socket-level failures are
// invisible to it.
func (s *Server) Validate(files suts.Files) error {
	_, err := s.check(files)
	return err
}

// listen binds the serving socket, wrapping failure in redis's wording.
func (s *Server) listen(port int) (net.Listener, error) {
	ln, err := s.Transport().Listen(fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, &suts.StartupError{System: s.Name(),
			Msg: fmt.Sprintf("Could not create server TCP listening socket 127.0.0.1:%d: %v", port, err)}
	}
	return ln, nil
}

// resetData clears the dataset, as every fresh start does.
func (s *Server) resetData() {
	s.dataMu.Lock()
	s.data = make(map[string]string)
	s.dataMu.Unlock()
}

// acceptOn runs the accept loop for one listener generation.
func (s *Server) acceptOn(ln net.Listener) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(conn)
			}()
		}
	}()
}

// Stop implements suts.System.
func (s *Server) Stop() error {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	s.curPort = 0
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.wg.Wait()
	return nil
}

// Health implements suts.HealthChecker.
func (s *Server) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return fmt.Errorf("redis-sim: not listening")
	}
	return nil
}

// Addr implements suts.Addressable.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// serve handles one client connection speaking inline commands —
// newline-terminated "COMMAND arg arg" lines, the protocol form redis
// supports alongside RESP arrays.
func (s *Server) serve(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		fields := strings.Fields(strings.TrimSpace(sc.Text()))
		if len(fields) == 0 {
			continue
		}
		reply := s.execute(fields)
		if _, err := conn.Write([]byte(reply)); err != nil {
			return
		}
	}
}

// execute runs one command and renders its RESP reply.
func (s *Server) execute(fields []string) string {
	cmd := strings.ToUpper(fields[0])
	args := fields[1:]
	switch cmd {
	case "PING":
		if len(args) == 1 {
			return bulk(args[0])
		}
		return "+PONG\r\n"
	case "ECHO":
		if len(args) != 1 {
			return errWrongArgs(cmd)
		}
		return bulk(args[0])
	case "SET":
		if len(args) != 2 {
			return errWrongArgs(cmd)
		}
		s.dataMu.Lock()
		s.data[args[0]] = args[1]
		s.dataMu.Unlock()
		return "+OK\r\n"
	case "GET":
		if len(args) != 1 {
			return errWrongArgs(cmd)
		}
		s.dataMu.Lock()
		v, ok := s.data[args[0]]
		s.dataMu.Unlock()
		if !ok {
			return "$-1\r\n"
		}
		return bulk(v)
	case "DEL":
		if len(args) == 0 {
			return errWrongArgs(cmd)
		}
		n := 0
		s.dataMu.Lock()
		for _, k := range args {
			if _, ok := s.data[k]; ok {
				delete(s.data, k)
				n++
			}
		}
		s.dataMu.Unlock()
		return fmt.Sprintf(":%d\r\n", n)
	case "SELECT":
		if len(args) != 1 {
			return errWrongArgs(cmd)
		}
		n, err := strconv.Atoi(args[0])
		s.mu.Lock()
		max := s.databases
		s.mu.Unlock()
		if err != nil || n < 0 || n >= max {
			return "-ERR DB index is out of range\r\n"
		}
		return "+OK\r\n"
	default:
		return fmt.Sprintf("-ERR unknown command '%s'\r\n", fields[0])
	}
}

func bulk(s string) string {
	return fmt.Sprintf("$%d\r\n%s\r\n", len(s), s)
}

func errWrongArgs(cmd string) string {
	return fmt.Sprintf("-ERR wrong number of arguments for '%s' command\r\n", strings.ToLower(cmd))
}

// parseConfig applies redis-server's startup semantics: every line must
// name a known directive with a valid argument list, and a violation
// aborts startup with redis's fatal-config wording.
func parseConfig(conf string) (config, error) {
	cfg := config{port: 6379, databases: 16}
	for lineno, line := range strings.Split(conf, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		fields := strings.Fields(t)
		name, args := strings.ToLower(fields[0]), fields[1:]
		bad := func(msg string) error {
			return fmt.Errorf("*** FATAL CONFIG FILE ERROR *** Reading the configuration file, at line %d >>> '%s' %s",
				lineno+1, t, msg)
		}
		switch name {
		case "bind":
			if len(args) < 1 {
				return cfg, bad("Bad directive or wrong number of arguments")
			}
			for _, a := range args {
				if net.ParseIP(a) == nil && a != "localhost" {
					return cfg, bad("Invalid bind address")
				}
			}
		case "port":
			n, err := atoiArg(args)
			if err != nil || n < 0 || n > 65535 {
				return cfg, bad("Invalid port")
			}
			cfg.port = n
		case "timeout", "tcp-keepalive", "tcp-backlog", "maxclients",
			"slowlog-log-slower-than", "slowlog-max-len":
			if _, err := atoiArg(args); err != nil {
				return cfg, bad("Bad directive or wrong number of arguments")
			}
		case "databases":
			n, err := atoiArg(args)
			if err != nil || n < 1 {
				return cfg, bad("Invalid number of databases")
			}
			cfg.databases = n
		case "save":
			if len(args) != 2 {
				return cfg, bad("Invalid save parameters")
			}
			for _, a := range args {
				if n, err := strconv.Atoi(a); err != nil || n < 0 {
					return cfg, bad("Invalid save parameters")
				}
			}
		case "daemonize", "stop-writes-on-bgsave-error", "rdbcompression", "appendonly":
			if len(args) != 1 || (args[0] != "yes" && args[0] != "no") {
				return cfg, bad("argument must be 'yes' or 'no'")
			}
		case "loglevel":
			if len(args) != 1 || !oneOf(args[0], "debug", "verbose", "notice", "warning") {
				return cfg, bad("Invalid log level. Must be one of debug, verbose, notice, warning")
			}
		case "appendfsync":
			if len(args) != 1 || !oneOf(args[0], "always", "everysec", "no") {
				return cfg, bad("argument must be 'no', 'always' or 'everysec'")
			}
		case "maxmemory-policy":
			if len(args) != 1 || !oneOf(args[0],
				"noeviction", "allkeys-lru", "volatile-lru", "allkeys-random", "volatile-random", "volatile-ttl") {
				return cfg, bad("Invalid maxmemory policy")
			}
		case "maxmemory":
			if len(args) != 1 || !validMemory(args[0]) {
				return cfg, bad("argument must be a memory value")
			}
		case "logfile", "dbfilename", "dir":
			if len(args) != 1 {
				return cfg, bad("Bad directive or wrong number of arguments")
			}
		default:
			return cfg, bad("Bad directive or wrong number of arguments")
		}
	}
	return cfg, nil
}

// atoiArg parses a single mandatory integer argument.
func atoiArg(args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("wrong number of arguments")
	}
	return strconv.Atoi(args[0])
}

func oneOf(s string, options ...string) bool {
	for _, o := range options {
		if s == o {
			return true
		}
	}
	return false
}

// validMemory reports whether s is a redis memory value: a non-negative
// integer with an optional b/kb/mb/gb (or k/m/g) suffix, case-insensitive.
func validMemory(s string) bool {
	l := strings.ToLower(s)
	for _, suf := range []string{"kb", "mb", "gb", "b", "k", "m", "g"} {
		if strings.HasSuffix(l, suf) && len(l) > len(suf) {
			l = l[:len(l)-len(suf)]
			break
		}
	}
	n, err := strconv.Atoi(l)
	return err == nil && n >= 0
}

// dial connects to the running server through its transport.
func (s *Server) dial() (net.Conn, error) {
	return s.Transport().Dial(fmt.Sprintf("127.0.0.1:%d", s.DefaultPort()))
}

// roundTrip sends one inline command and reads one reply line (plus the
// payload line of a bulk reply).
func roundTrip(conn net.Conn, r *bufio.Reader, cmd string) (string, error) {
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return "", err
	}
	if _, err := fmt.Fprintf(conn, "%s\r\n", cmd); err != nil {
		return "", err
	}
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if strings.HasPrefix(line, "$") && line != "$-1" {
		payload, err := r.ReadString('\n')
		if err != nil {
			return "", err
		}
		return strings.TrimRight(payload, "\r\n"), nil
	}
	return line, nil
}

// Tests returns the paper-style functional diagnosis an administrator
// would run against a cache: a liveness ping and a write/read round trip.
func Tests(s *Server) []suts.Test {
	return []suts.Test{
		{
			Name: "ping",
			Run: func() error {
				conn, err := s.dial()
				if err != nil {
					return fmt.Errorf("dial: %w", err)
				}
				defer func() { _ = conn.Close() }()
				reply, err := roundTrip(conn, bufio.NewReader(conn), "PING")
				if err != nil {
					return err
				}
				if reply != "+PONG" {
					return fmt.Errorf("PING reply %q", reply)
				}
				return nil
			},
		},
		{
			Name: "set-get",
			Run: func() error {
				conn, err := s.dial()
				if err != nil {
					return fmt.Errorf("dial: %w", err)
				}
				defer func() { _ = conn.Close() }()
				r := bufio.NewReader(conn)
				if reply, err := roundTrip(conn, r, "SET conferr:probe 42"); err != nil || reply != "+OK" {
					return fmt.Errorf("SET reply %q: %v", reply, err)
				}
				if reply, err := roundTrip(conn, r, "GET conferr:probe"); err != nil || reply != "42" {
					return fmt.Errorf("GET reply %q: %v", reply, err)
				}
				if reply, err := roundTrip(conn, r, "DEL conferr:probe"); err != nil || reply != ":1" {
					return fmt.Errorf("DEL reply %q: %v", reply, err)
				}
				return nil
			},
		},
		{
			Name: "select-db",
			Run: func() error {
				conn, err := s.dial()
				if err != nil {
					return fmt.Errorf("dial: %w", err)
				}
				defer func() { _ = conn.Close() }()
				reply, err := roundTrip(conn, bufio.NewReader(conn), "SELECT 15")
				if err != nil {
					return err
				}
				if reply != "+OK" {
					return fmt.Errorf("SELECT 15 reply %q (databases shrunk below the stock 16?)", reply)
				}
				return nil
			},
		},
	}
}
