package postgres

import (
	"fmt"
	"strings"

	"conferr/internal/sqlmini"
	"conferr/internal/suts"
)

// ConfigFile is the logical name of the simulator's configuration file.
const ConfigFile = "postgresql.conf"

// Server is the simulated PostgreSQL server. The embedded suts.Net
// carries its transport.
type Server struct {
	suts.Net
	port int

	srv      *sqlmini.Server
	curAddr  string
	settings settings
}

// checkedConfig is a parsed-and-checked configuration and its resolved
// listen address.
type checkedConfig struct {
	st   settings
	addr string
}

// settings is the effective configuration after a successful parse.
type settings struct {
	ints    map[string]int64
	reals   map[string]float64
	bools   map[string]bool
	strs    map[string]string
	enums   map[string]string
	port    int64
	maxConn int64
	listen  string
}

var _ suts.System = (*Server)(nil)
var _ suts.Addressable = (*Server)(nil)
var _ suts.Reloader = (*Server)(nil)
var _ suts.DirtyReloader = (*Server)(nil)
var _ suts.Validator = (*Server)(nil)
var _ suts.HealthChecker = (*Server)(nil)
var _ suts.TransportSetter = (*Server)(nil)
var _ suts.HostSetter = (*Server)(nil)

// New returns a simulator whose default configuration listens on the given
// TCP port (0 picks a free one at construction time).
func New(port int) (*Server, error) {
	var err error
	if port == 0 {
		if port, err = suts.FreePort("tcp"); err != nil {
			return nil, fmt.Errorf("postgres: %w", err)
		}
	}
	return &Server{port: port}, nil
}

// Name implements suts.System.
func (s *Server) Name() string { return "postgres-sim" }

// DefaultPort returns the port of the default configuration.
func (s *Server) DefaultPort() int { return s.port }

// DefaultConfig implements suts.System. It mirrors the stock
// postgresql.conf of 8.2: 8 active directives (paper §5.1), including the
// max_fsm_pages default whose typo the paper uses as its constraint-check
// example.
func (s *Server) DefaultConfig() suts.Files {
	conf := fmt.Sprintf(`# PostgreSQL configuration file
listen_addresses = 'localhost'
port = %d
max_connections = 100
shared_buffers = 32MB
max_fsm_pages = 153600
datestyle = 'iso, mdy'
lc_messages = 'C'
log_destination = 'stderr'
`, s.port)
	return suts.Files{ConfigFile: []byte(conf)}
}

// FullConfig returns a configuration listing every modeled parameter with
// its default value, excluding booleans and parameters without defaults —
// the §5.5 comparison faultload ("a file containing most of the available
// directives, along with the default values").
func (s *Server) FullConfig() suts.Files {
	var b strings.Builder
	b.WriteString("# full parameter listing\n")
	for _, g := range gucs {
		if g.kind == kindBool || g.def == "" {
			continue
		}
		val := g.def
		if g.name == "port" {
			val = fmt.Sprint(s.port)
		}
		if g.kind == kindString || g.kind == kindEnum {
			val = "'" + val + "'"
		}
		fmt.Fprintf(&b, "%s = %s\n", g.name, val)
	}
	return suts.Files{ConfigFile: []byte(b.String())}
}

// check parses a configuration and resolves its listen address without
// touching server state. Errors carry postgres's FATAL startup wording.
func (s *Server) check(files suts.Files) (checkedConfig, error) {
	data, ok := files[ConfigFile]
	if !ok {
		return checkedConfig{}, &suts.StartupError{System: s.Name(), Msg: "missing " + ConfigFile}
	}
	st, err := parseConfig(string(data))
	if err != nil {
		return checkedConfig{}, &suts.StartupError{System: s.Name(), Msg: "FATAL: " + err.Error()}
	}

	// listen_addresses is a plain string parameter, but a host that does
	// not resolve fails at bind time — still a startup-visible failure.
	host := st.listen
	switch host {
	case "localhost", "127.0.0.1", "*", "0.0.0.0", "":
		host = "127.0.0.1"
	default:
		return checkedConfig{}, &suts.StartupError{System: s.Name(),
			Msg: fmt.Sprintf("FATAL: could not translate host name \"%s\" to address", st.listen)}
	}
	return checkedConfig{st: st, addr: fmt.Sprintf("%s:%d", host, st.port)}, nil
}

// Start implements suts.System.
func (s *Server) Start(files suts.Files) error { return s.configure(files) }

// Reload implements suts.Reloader: the `pg_ctl reload` idiom, extended
// with a full catalog reset so a warm experiment sees the same fresh
// state a cold restart would. A configuration error is rejected with
// Start's exact wording and the previous configuration keeps serving; an
// address change binds the new socket before releasing the old one.
func (s *Server) Reload(files suts.Files) error { return s.configure(files) }

// configure drives the server to the given configuration from whatever
// is currently bound: a fresh socket for a cold start or an address
// change, only a catalog reset and new limits otherwise. On error the
// previous state is untouched (nothing bound for a cold start).
func (s *Server) configure(files suts.Files) error {
	cc, err := s.check(files)
	if err != nil {
		return err
	}
	st, addr := cc.st, cc.addr
	if s.srv != nil && addr == s.curAddr {
		s.srv.SetEngine(&sqlmini.Engine{})
		s.srv.SetMaxConns(int(st.maxConn))
		s.settings = st
		return nil
	}
	srv := sqlmini.NewServer(&sqlmini.Engine{})
	srv.MaxConns = int(st.maxConn)
	if err := srv.Listen(s.Transport().Listen, addr); err != nil {
		return &suts.StartupError{System: s.Name(), Msg: err.Error()}
	}
	old := s.srv
	s.srv = srv
	s.curAddr = addr
	s.settings = st
	if old != nil {
		_ = old.Close()
	}
	return nil
}

// ReloadDirty is Reload; the dirty set is ignored. Nothing in the
// program calls it. It stays because the benchmark's capability table
// (bench/wrap.go) lists suts.DirtyReloader.
func (s *Server) ReloadDirty(files suts.Files, _ []string) error { return s.Reload(files) }

// Validate implements suts.Validator: the `postgres -C` / config-check
// idiom — parse and address resolution only, nothing bound.
func (s *Server) Validate(files suts.Files) error {
	_, err := s.check(files)
	return err
}

// Stop implements suts.System.
func (s *Server) Stop() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.srv = nil
	s.curAddr = ""
	return err
}

// Health implements suts.HealthChecker.
func (s *Server) Health() error {
	if s.srv == nil {
		return fmt.Errorf("postgres-sim: not listening")
	}
	return nil
}

// Addr implements suts.Addressable.
func (s *Server) Addr() string {
	if s.srv == nil {
		return ""
	}
	return s.srv.Addr()
}

// parseConfig applies 8.2's configuration-file semantics.
func parseConfig(conf string) (settings, error) {
	st := settings{
		ints:    make(map[string]int64),
		reals:   make(map[string]float64),
		bools:   make(map[string]bool),
		strs:    make(map[string]string),
		enums:   make(map[string]string),
		port:    5432,
		maxConn: 100,
		listen:  "localhost",
	}
	for lineno, line := range strings.Split(conf, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		name, rawVal, err := splitAssignment(t, lineno+1)
		if err != nil {
			return st, err
		}
		def := lookupGUC(name)
		if def == nil {
			return st, fmt.Errorf("unrecognized configuration parameter \"%s\"", name)
		}
		val, err := unquoteValue(rawVal, lineno+1)
		if err != nil {
			return st, err
		}
		if err := applyGUC(&st, def, val); err != nil {
			return st, err
		}
	}
	// Cross-directive constraint (paper §5.2): max_fsm_pages must be at
	// least 16 × max_fsm_relations.
	fsmPages, hasPages := st.ints["max_fsm_pages"]
	fsmRel := int64(1000) // default max_fsm_relations
	if v, ok := st.ints["max_fsm_relations"]; ok {
		fsmRel = v
	}
	if hasPages && fsmPages < 16*fsmRel {
		return st, fmt.Errorf(
			"max_fsm_pages must exceed max_fsm_relations * 16 (%d < %d)",
			fsmPages, 16*fsmRel)
	}
	return st, nil
}

// splitAssignment splits "name = value" or "name value"; the '=' is
// optional, a directive with neither '=' nor value is a syntax error.
func splitAssignment(line string, lineno int) (string, string, error) {
	if eq := strings.IndexByte(line, '='); eq >= 0 {
		name := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		if name == "" || strings.ContainsAny(name, " \t") {
			return "", "", fmt.Errorf("syntax error in configuration file at line %d", lineno)
		}
		return name, val, nil
	}
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return "", "", fmt.Errorf("syntax error in configuration file at line %d", lineno)
	}
	return line[:i], strings.TrimSpace(line[i:]), nil
}

// unquoteValue strips trailing comments and paired single quotes; an
// unterminated quote is a syntax error (a typo corrupting a quote is
// detected).
func unquoteValue(raw string, lineno int) (string, error) {
	v := raw
	if !strings.HasPrefix(v, "'") {
		// Trailing comment only applies outside quotes here; quoted values
		// had comments handled by the scan below.
		if i := strings.IndexByte(v, '#'); i >= 0 {
			v = strings.TrimSpace(v[:i])
		}
		return v, nil
	}
	// Quoted: find the closing quote ('' escapes).
	for i := 1; i < len(v); i++ {
		if v[i] != '\'' {
			continue
		}
		if i+1 < len(v) && v[i+1] == '\'' {
			i++
			continue
		}
		inner := strings.ReplaceAll(v[1:i], "''", "'")
		rest := strings.TrimSpace(v[i+1:])
		if rest != "" && !strings.HasPrefix(rest, "#") {
			return "", fmt.Errorf("syntax error in configuration file at line %d", lineno)
		}
		return inner, nil
	}
	return "", fmt.Errorf("unterminated quoted string in configuration file at line %d", lineno)
}

func applyGUC(st *settings, def *gucDef, val string) error {
	switch def.kind {
	case kindInt:
		n, err := parseInt(val, def)
		if err != nil {
			return err
		}
		st.ints[def.name] = n
		switch def.name {
		case "port":
			st.port = n
		case "max_connections":
			st.maxConn = n
		}
	case kindReal:
		f, err := parseReal(val, def)
		if err != nil {
			return err
		}
		st.reals[def.name] = f
	case kindBool:
		b, err := parseBool(val, def)
		if err != nil {
			return err
		}
		st.bools[def.name] = b
	case kindEnum:
		v, err := parseEnum(val, def)
		if err != nil {
			return err
		}
		st.enums[def.name] = v
	case kindString:
		st.strs[def.name] = val
		if def.name == "listen_addresses" {
			st.listen = val
		}
	}
	return nil
}

// Tests returns the paper's database diagnosis suite (§5.1) against the
// default port.
func Tests(s *Server) []suts.Test {
	return []suts.Test{{
		Name: "db-roundtrip",
		Run: func() error {
			return sqlmini.RoundTrip(s.Transport().Dial, fmt.Sprintf("127.0.0.1:%d", s.DefaultPort()))
		},
	}}
}
