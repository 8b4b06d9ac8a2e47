package mysqld

import (
	"fmt"
	"strings"

	"conferr/internal/sqlmini"
	"conferr/internal/suts"
)

// ConfigFile is the logical name of the simulator's configuration file.
const ConfigFile = "my.cnf"

// Server is the simulated MySQL server.
type Server struct {
	port int // default port written into DefaultConfig
	lo   suts.LoopbackTransport

	// Strict, when set before Start, turns the silent acceptances the
	// paper flags as flaws (§5.2) into startup errors: out-of-range
	// values, trailing junk after a multiplier, and valueless directives
	// are rejected instead of absorbed. It models the "simple checks that
	// could significantly improve resilience" the paper says the profile
	// reveals, and exists so campaigns can quantify that improvement
	// (profile.Compare).
	Strict bool

	// state of the running instance
	srv      *sqlmini.Server
	settings settings
	// latent holds the raw lines of non-server groups, unparsed at
	// startup — the shared-config design flaw (paper §5.2).
	latent map[string][]string
}

// settings is the effective [mysqld] configuration after parsing.
type settings struct {
	nums    map[string]int64
	strs    map[string]string
	bools   map[string]bool
	enums   map[string]string
	flags   map[string]bool
	port    int64
	maxConn int64
}

var _ suts.System = (*Server)(nil)
var _ suts.Addressable = (*Server)(nil)
var _ suts.HostSetter = (*Server)(nil)

// New returns a simulator whose default configuration listens on the given
// TCP port (use a free high port; 0 is replaced by an OS-assigned one at
// construction time so the default config is always concrete).
func New(port int) (*Server, error) {
	var err error
	if port == 0 {
		if port, err = suts.FreePort("tcp"); err != nil {
			return nil, fmt.Errorf("mysqld: %w", err)
		}
	}
	return &Server{port: port}, nil
}

// Name implements suts.System.
func (s *Server) Name() string { return "mysql-sim" }

// DefaultPort returns the port of the default configuration — what an
// administrator (and the functional tests) expect the server to listen on.
func (s *Server) DefaultPort() int { return s.port }

// DefaultConfig implements suts.System: the server group of a
// my-medium.cnf-style file, 14 directives in total (paper §5.1).
func (s *Server) DefaultConfig() suts.Files {
	conf := fmt.Sprintf(`# Example MySQL config file for medium systems.
[mysqld]
port = %d
socket = /tmp/mysql.sock
datadir = /var/lib/mysql
skip-external-locking
key_buffer_size = 16M
max_allowed_packet = 1M
table_open_cache = 64
sort_buffer_size = 512K
net_buffer_length = 8K
read_buffer_size = 256K
thread_stack = 192K
thread_cache_size = 8
max_connections = 151
wait_timeout = 28800
`, s.port)
	return suts.Files{ConfigFile: []byte(conf)}
}

// SharedConfig returns the default configuration extended with the
// auxiliary tools' groups — the shared my.cnf whose non-server sections
// are latent at startup, the design flaw of §5.2.
func (s *Server) SharedConfig() suts.Files {
	base := string(s.DefaultConfig()[ConfigFile])
	base += `
[mysqldump]
quick
max_allowed_packet = 16M

[myisamchk]
key_buffer_size = 20M
`
	return suts.Files{ConfigFile: []byte(base)}
}

// FullConfig returns a [mysqld] configuration listing every modeled server
// variable with its default value, excluding booleans, flags and variables
// without defaults — the §5.5 comparison faultload.
func (s *Server) FullConfig() suts.Files {
	var b strings.Builder
	b.WriteString("# full variable listing\n[mysqld]\n")
	for _, v := range serverVars {
		if v.kind == kindBool || v.kind == kindFlag || v.def == "" {
			continue
		}
		val := v.def
		if v.name == "port" {
			val = fmt.Sprint(s.port)
		}
		fmt.Fprintf(&b, "%s = %s\n", v.name, val)
	}
	return suts.Files{ConfigFile: []byte(b.String())}
}

// serverGroups are the option groups mysqld itself reads; everything else
// in the shared file is left for the auxiliary tools.
var serverGroups = map[string]bool{"mysqld": true, "server": true}

// Start implements suts.System: it parses the configuration the way MySQL
// does and begins serving the sqlmini protocol on the configured port.
func (s *Server) Start(files suts.Files) error {
	data, ok := files[ConfigFile]
	if !ok {
		return &suts.StartupError{System: s.Name(), Msg: "missing " + ConfigFile}
	}
	st, latent, err := s.parseConfig(string(data))
	if err != nil {
		return &suts.StartupError{System: s.Name(), Msg: err.Error()}
	}
	s.settings = st
	s.latent = latent

	eng := &sqlmini.Engine{}
	srv := sqlmini.NewServer(eng)
	srv.MaxConns = int(st.maxConn)
	if err := srv.Listen(s.lo.Listen, fmt.Sprintf("127.0.0.1:%d", st.port)); err != nil {
		// An un-bindable port is observable at startup, exactly like a
		// rejected configuration value.
		return &suts.StartupError{System: s.Name(), Msg: err.Error()}
	}
	s.srv = srv
	return nil
}

// Stop implements suts.System.
func (s *Server) Stop() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.srv = nil
	return err
}

// SetHost implements suts.HostSetter.
func (s *Server) SetHost(host string) { s.lo.Host = host }

// Addr implements suts.Addressable.
func (s *Server) Addr() string {
	if s.srv == nil {
		return ""
	}
	return s.srv.Addr()
}

// parseConfig applies MySQL's option-file semantics to the shared my.cnf.
func (s *Server) parseConfig(conf string) (settings, map[string][]string, error) {
	st := settings{
		nums:  make(map[string]int64),
		strs:  make(map[string]string),
		bools: make(map[string]bool),
		enums: make(map[string]string),
		flags: make(map[string]bool),
		// Defaults for the knobs the simulator acts on.
		port:    3306,
		maxConn: 151,
	}
	latent := make(map[string][]string)

	group := ""
	for _, line := range strings.Split(conf, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") || strings.HasPrefix(t, ";") {
			continue
		}
		if strings.HasPrefix(t, "[") {
			end := strings.IndexByte(t, ']')
			if end < 0 {
				return st, nil, fmt.Errorf("wrong group definition in config file: %s", t)
			}
			group = strings.TrimSpace(t[1:end])
			continue
		}
		if !serverGroups[group] {
			// Shared file: other tools' groups are not parsed at startup;
			// any errors in them stay latent (paper §5.2).
			if group != "" {
				latent[group] = append(latent[group], t)
			} else {
				// Directives before any group header: mysqld rejects them.
				return st, nil, fmt.Errorf("option without preceding group in config file: %s", t)
			}
			continue
		}
		name, value, hasValue := splitOption(t)
		if err := applyOption(&st, name, value, hasValue, s.Strict); err != nil {
			return st, nil, err
		}
	}
	return st, latent, nil
}

// splitOption splits "name = value" / "name=value" / "name".
func splitOption(line string) (name, value string, hasValue bool) {
	if eq := strings.IndexByte(line, '='); eq >= 0 {
		return strings.TrimSpace(line[:eq]), strings.TrimSpace(line[eq+1:]), true
	}
	return strings.TrimSpace(line), "", false
}

// normalizeName maps '-' to '_' (MySQL treats them interchangeably in
// option names) — note this does not change case: option names are
// case-sensitive (Table 2).
func normalizeName(name string) string {
	return strings.ReplaceAll(name, "-", "_")
}

func applyOption(st *settings, name, value string, hasValue, strict bool) error {
	def, ambiguous := lookupVar(normalizeName(name))
	if ambiguous {
		return fmt.Errorf("ambiguous option '--%s'", name)
	}
	if def == nil {
		return fmt.Errorf("unknown variable '%s=%s'", name, value)
	}
	// A directive with no value (or an empty one) is accepted and the
	// default silently used (paper §5.2) — except flags, where presence is
	// the value. Strict mode rejects it.
	if def.kind != kindFlag && (!hasValue || strings.TrimSpace(value) == "") {
		if strict {
			return fmt.Errorf("option '%s' requires a value", def.name)
		}
		return nil
	}
	switch def.kind {
	case kindInt, kindSize:
		res, err := parseNum(value, def.min, def.max)
		if err != nil {
			return fmt.Errorf("option '%s': %s", def.name, err.Error())
		}
		if res.usedDefault {
			if strict {
				return fmt.Errorf("option '%s' requires a value", def.name)
			}
			return nil
		}
		if res.trailingJunk && strict {
			return fmt.Errorf("option '%s': trailing characters after multiplier in '%s'", def.name, value)
		}
		if res.clamped && strict {
			return fmt.Errorf("option '%s': value '%s' out of range [%d, %d]",
				def.name, value, def.min, def.max)
		}
		st.nums[def.name] = res.value
		switch def.name {
		case "port":
			st.port = res.value
		case "max_connections":
			st.maxConn = res.value
		}
	case kindBool:
		b, err := parseBool(value)
		if err != nil {
			return fmt.Errorf("option '%s': %s", def.name, err.Error())
		}
		st.bools[def.name] = b
	case kindEnum:
		v, err := parseEnum(value, def.enum)
		if err != nil {
			return fmt.Errorf("option '%s': %s", def.name, err.Error())
		}
		st.enums[def.name] = v
	case kindString:
		if err := checkPath(def.name, value); err != nil {
			return err
		}
		st.strs[def.name] = value
	case kindFlag:
		if hasValue {
			b, err := parseBool(value)
			if err != nil {
				return fmt.Errorf("option '%s': %s", def.name, err.Error())
			}
			st.flags[def.name] = b
		} else {
			st.flags[def.name] = true
		}
	}
	return nil
}

// knownDirs simulates the host filesystem: the directories that exist on
// the test machine. MySQL fails at startup when datadir does not exist
// ("Can't change dir to ...") or when the directory that should hold the
// socket or a log file is missing — so typos in the directory part of a
// path are detected while typos in the final component are not.
var knownDirs = map[string]bool{
	"/":                        true,
	"/tmp":                     true,
	"/var":                     true,
	"/var/lib":                 true,
	"/var/lib/mysql":           true,
	"/var/log":                 true,
	"/var/log/mysql":           true,
	"/var/run":                 true,
	"/var/run/mysqld":          true,
	"/usr":                     true,
	"/usr/share":               true,
	"/usr/share/mysql":         true,
	"/usr/share/mysql/english": true,
}

// checkPath validates path-valued variables against the simulated
// filesystem, and bind_address against the resolvable addresses.
func checkPath(name, value string) error {
	switch name {
	case "bind_address":
		switch value {
		case "127.0.0.1", "localhost", "0.0.0.0", "*", "::":
			return nil
		default:
			return fmt.Errorf("Can't start server: Bind on TCP/IP port: cannot resolve '%s'", value)
		}
	case "datadir", "basedir", "language", "tmpdir":
		// The directory itself must exist.
		if !knownDirs[strings.TrimSuffix(value, "/")] {
			return fmt.Errorf("Can't change dir to '%s' (option '%s')", value, name)
		}
	case "socket", "log_error", "log_bin":
		// The containing directory must exist; the file is created. A
		// relative name (log_bin default) lives in datadir.
		dir := parentDir(value)
		if dir != "" && !knownDirs[dir] {
			return fmt.Errorf("Can't create file '%s': no such directory (option '%s')", value, name)
		}
	}
	return nil
}

// parentDir returns the directory part of an absolute path ("" for
// relative names, "/" for top-level files).
func parentDir(path string) string {
	i := strings.LastIndexByte(path, '/')
	switch {
	case i < 0:
		return ""
	case i == 0:
		return "/"
	default:
		return path[:i]
	}
}

// CheckTool simulates running one of the auxiliary tools that share
// my.cnf (e.g. mysqldump from a nightly cron job): it parses the latent
// group and returns the error an administrator would only see then.
func (s *Server) CheckTool(group string) error {
	known := map[string]map[string]bool{
		"mysqldump": {"quick": true, "max_allowed_packet": true, "host": true, "user": true},
		"myisamchk": {"key_buffer_size": true, "sort_buffer_size": true},
	}
	vars, ok := known[group]
	if !ok {
		return fmt.Errorf("mysqld: unknown tool group %q", group)
	}
	for _, line := range s.latent[group] {
		name, _, _ := splitOption(line)
		if !vars[normalizeName(name)] {
			return fmt.Errorf("%s: unknown option '%s'", group, name)
		}
	}
	return nil
}

// Tests returns the functional test suite the paper uses for databases:
// create a database, create a table, populate it, query it (§5.1). The
// tests dial the default port — a mutated port means the administrator's
// check fails.
func Tests(s *Server) []suts.Test {
	return []suts.Test{{
		Name: "db-roundtrip",
		Run: func() error {
			return sqlmini.RoundTrip(s.lo.Dial, fmt.Sprintf("127.0.0.1:%d", s.DefaultPort()))
		},
	}}
}
