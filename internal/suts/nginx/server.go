// Package nginx implements a simulated nginx web server: a real HTTP
// server whose configuration parser faithfully models the documented
// startup behaviour of nginx — brace-block syntax, a context-checked
// directive table, per-directive argument validation, and nginx's own
// error wording — driven by the nginxconf format's nested-block files.
package nginx

import (
	"bytes"
	stdcontext "context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"conferr/internal/suts"
	"conferr/internal/suts/httpprobe"
)

// ConfigFile is the logical name of the simulator's configuration file.
const ConfigFile = "nginx.conf"

// Server is the simulated nginx daemon. The embedded suts.Net carries
// its transport; its ports live in an httpprobe.Listeners.
type Server struct {
	suts.Net
	port int
	ls   httpprobe.Listeners

	clientOnce sync.Once
	client     *http.Client

	// baseMemo caches the checked parse of the campaign-baseline
	// nginx.conf across warm reloads (see suts.ParseMemo for why the
	// identity keying is sound).
	baseMemo suts.ParseMemo[checkedConfig]
}

// checkedConfig is a parsed-and-checked configuration: the effective
// server blocks and the unique ports to bind in configuration order. It
// is the unit the baseline memo caches and apply consumes.
type checkedConfig struct {
	servers []vserver
	ports   []int
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
			return nil, fmt.Errorf("nginx: %w", err)
		}
	}
	return &Server{port: port}, nil
}

// Name implements suts.System.
func (s *Server) Name() string { return "nginx-sim" }

// DefaultPort returns the port of the default configuration.
func (s *Server) DefaultPort() int { return s.port }

// DefaultConfig implements suts.System: a configuration modeled on a
// stock nginx.conf — main, events and http contexts, two name-based
// virtual hosts on one port, and nested location blocks three levels
// deep.
func (s *Server) DefaultConfig() suts.Files {
	conf := fmt.Sprintf(`# nginx configuration (simulated)
user nginx;
worker_processes auto;
pid /run/nginx.pid;
error_log /var/log/nginx/error.log warn;

events {
    worker_connections 1024;
    multi_accept on;
}

http {
    include /etc/nginx/mime.types;
    default_type application/octet-stream;
    log_format main '$remote_addr - $remote_user [$time_local] "$request" $status';
    access_log /var/log/nginx/access.log main;
    sendfile on;
    tcp_nopush on;
    tcp_nodelay on;
    keepalive_timeout 65;
    types_hash_max_size 2048;
    client_max_body_size 8m;
    gzip on;
    server_tokens off;

    server {
        listen %d;
        server_name www.example.com;
        root /var/www/html;
        index index.html index.htm;
        error_page 404 /404.html;

        location / {
            root /var/www/html;
            index index.html;
        }
        location /static/ {
            root /var/www/static;
            autoindex off;
            expires 30d;
        }
    }

    server {
        listen %d;
        server_name blog.example.com;
        root /var/www/blog;
        access_log /var/log/nginx/blog.log main;

        location / {
            root /var/www/blog;
            try_files $uri $uri/ /index.html;
        }
    }
}
`, s.port, s.port)
	return suts.Files{ConfigFile: []byte(conf)}
}

// location is one location block: a prefix and the root that marks
// responses served from it.
type location struct {
	prefix string
	root   string
}

// vserver is one server block.
type vserver struct {
	ports     []int
	names     []string
	root      string
	locations []location
}

// parsed is the effective configuration.
type parsed struct {
	sawEvents bool
	servers   []vserver
}

// check parses and validates a configuration without touching listener
// state. Errors carry nginx's startup wording.
func (s *Server) check(files suts.Files) (checkedConfig, error) {
	data, ok := files[ConfigFile]
	if !ok {
		return checkedConfig{}, &suts.StartupError{System: s.Name(), Msg: "missing " + ConfigFile}
	}
	cfg, err := parseConfig(string(data))
	if err != nil {
		return checkedConfig{}, &suts.StartupError{System: s.Name(), Msg: err.Error()}
	}
	if !cfg.sawEvents {
		return checkedConfig{}, &suts.StartupError{System: s.Name(), Msg: `no "events" section in configuration`}
	}

	// One listener per unique port; the first server block naming a port
	// is its default server, later ones are name-based virtual hosts.
	// Dedup by linear scan: the port list is a handful of entries and this
	// runs once per experiment, so a map would cost more than it saves.
	var ports []int
	for si := range cfg.servers {
		sv := &cfg.servers[si]
		if len(sv.ports) == 0 {
			// A server block without listen falls back to a default port.
			// Real nginx uses :80, but binding a fixed privileged port
			// would make the outcome depend on the environment (root vs
			// not) and on which concurrent worker wins the bind race; the
			// instance's own default port keeps the omit-listen fault
			// deterministic at any worker width — the server silently
			// joins the default port's virtual hosts, a latent
			// misconfiguration only the per-host functional tests see.
			sv.ports = []int{s.port}
		}
		for _, p := range sv.ports {
			if !slices.Contains(ports, p) {
				ports = append(ports, p)
			}
		}
	}
	return checkedConfig{servers: cfg.servers, ports: ports}, nil
}

// Start implements suts.System.
func (s *Server) Start(files suts.Files) error { return s.configure(files) }

// Reload implements suts.Reloader: it applies a new configuration to the
// running server the way `nginx -s reload` does — configuration errors
// are rejected with Start's exact wording while the previous
// configuration keeps serving; ports shared between old and new
// configuration keep their listener (and established keep-alive
// connections), only the routing tables are swapped.
func (s *Server) Reload(files suts.Files) error { return s.configure(files) }

// ReloadDirty implements suts.DirtyReloader: when nginx.conf is not in
// the dirty set its bytes are the campaign baseline, so the memoized
// baseline parse is applied without re-parsing. Observationally
// identical to Reload — apply still runs in full, because the running
// configuration may be the previous experiment's mutation.
func (s *Server) ReloadDirty(files suts.Files, dirty []string) error {
	cc, err := s.baseMemo.Check(files, dirty, ConfigFile, s.check)
	if err != nil {
		return err
	}
	return s.apply(cc)
}

// Validate implements suts.Validator: the `nginx -t` parse-and-check
// path. It detects exactly Start's configuration rejections; bind-time
// failures are invisible to it.
func (s *Server) Validate(files suts.Files) error {
	_, err := s.check(files)
	return err
}

// configure drives the server to the given configuration from whatever
// is currently bound — everything for a cold start, nothing on a no-op
// reload. On error the previous state is untouched (empty for a cold
// start), so a rejected reload keeps serving the old configuration.
func (s *Server) configure(files suts.Files) error {
	cc, err := s.check(files)
	if err != nil {
		return err
	}
	return s.apply(cc)
}

// apply drives the listener and routing state to a checked
// configuration; each port routes among the server blocks on it.
func (s *Server) apply(cc checkedConfig) error {
	return s.ls.Apply(s.Transport().Listen, "nginx-sim/1.0", cc.ports,
		func(p int) httpprobe.Handler { return handlerFor(cc.servers, p) },
		func(p int, err error) error {
			return &suts.StartupError{System: s.Name(),
				Msg: fmt.Sprintf("bind() to 127.0.0.1:%d failed: %v", p, err)}
		})
}

// handlerFor builds the request handler of one listening port: match the
// Host header against the server_names of the servers on that port
// (falling back to the port's first server), then the longest location
// prefix, and answer with markers that let functional tests tell exactly
// which server and location produced the response. The per-request path
// works on the connection's byte slices and allocates nothing.
func handlerFor(servers []vserver, port int) httpprobe.Handler {
	var onPort []vserver
	for _, sv := range servers {
		for _, p := range sv.ports {
			if p == port {
				onPort = append(onPort, sv)
				break
			}
		}
	}
	return func(dst []byte, path, host []byte) ([]byte, int) {
		if i := bytes.LastIndexByte(host, ':'); i >= 0 {
			host = host[:i]
		}
		srv := onPort[0]
		for _, cand := range onPort {
			if matchesName(cand.names, host) {
				srv = cand
				break
			}
		}
		root, loc := srv.root, ""
		best := -1
		for _, l := range srv.locations {
			if httpprobe.HasPrefix(path, l.prefix) && len(l.prefix) > best {
				best = len(l.prefix)
				loc = l.prefix
				if l.root != "" {
					root = l.root
				}
			}
		}
		name := ""
		if len(srv.names) > 0 {
			name = srv.names[0]
		}
		return renderBody(dst, name, loc, root), 200
	}
}

// renderBody appends the response body — the same bytes the net/http
// handler's Fprintf produced, shared by the serving path and the
// contract tests so the two probe paths cannot drift.
func renderBody(dst []byte, name, loc, root string) []byte {
	dst = append(dst, "<html><body><h1>Welcome to nginx-sim!</h1><p>server="...)
	dst = append(dst, name...)
	dst = append(dst, "</p><p>location="...)
	dst = append(dst, loc...)
	dst = append(dst, "</p><p>root="...)
	dst = append(dst, root...)
	return append(dst, "</p></body></html>\n"...)
}

// matchesName compares a request host against a server's server_names,
// case-insensitively (configuration names and probe hosts are ASCII).
func matchesName(names []string, host []byte) bool {
	for _, n := range names {
		if httpprobe.EqualFold(host, n) {
			return true
		}
	}
	return false
}

// Stop implements suts.System.
func (s *Server) Stop() error {
	s.ls.Close()
	return nil
}

// Health implements suts.HealthChecker: a running server has at least
// one bound listener.
func (s *Server) Health() error {
	if s.ls.Len() == 0 {
		return fmt.Errorf("nginx-sim: no listeners bound")
	}
	return nil
}

// Addr implements suts.Addressable (first configured port's listener).
func (s *Server) Addr() string { return s.ls.Addr() }

// parseConfig applies nginx's startup semantics to the configuration
// text: brace-block syntax, directive lookup, context checking and
// argument validation, erroring with nginx's wording.
func parseConfig(conf string) (parsed, error) {
	var cfg parsed
	type frame struct {
		ctx context
		tag string
		srv *vserver
		loc *location
	}
	stack := []frame{{ctx: ctxMain}}
	// Lines are walked with IndexByte and directives split into a reused
	// args buffer: parseConfig runs once per experiment on the reload and
	// validate paths, and the strings.Split/Fields slices it used to
	// build dominated its allocation profile. The retained strings
	// (server names, roots, location prefixes) are substrings of conf, so
	// dropping the intermediate slices changes nothing downstream.
	var argsBuf []string
	lineno := 0
	for start := 0; start <= len(conf); {
		var line string
		if nl := strings.IndexByte(conf[start:], '\n'); nl >= 0 {
			line = conf[start : start+nl]
			start += nl + 1
		} else {
			line = conf[start:]
			start = len(conf) + 1
		}
		lineno++
		t := strings.TrimSpace(line)
		t = stripComment(t)
		if t == "" {
			continue
		}
		switch {
		case t == "}":
			if len(stack) == 1 {
				return cfg, fmt.Errorf(`unexpected "}" in %s:%d`, ConfigFile, lineno)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.loc != nil {
				// A closing location attaches to its enclosing server
				// (nested locations flatten onto the server, prefix
				// matching makes the nesting irrelevant at serve time).
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].srv != nil {
						stack[i].srv.locations = append(stack[i].srv.locations, *top.loc)
						break
					}
				}
			}
		case strings.HasSuffix(t, "{"):
			name, args := splitDirectiveInto(trimTrailingBlank(t[:len(t)-1]), argsBuf)
			argsBuf = args[:0]
			def := lookupDirective(name)
			if def == nil {
				return cfg, fmt.Errorf("unknown directive %q in %s:%d", name, ConfigFile, lineno)
			}
			if def.kind != argBlock {
				return cfg, fmt.Errorf("directive %q has no opening \"{\" form in %s:%d", name, ConfigFile, lineno)
			}
			cur := stack[len(stack)-1].ctx
			if def.contexts&cur == 0 {
				return cfg, fmt.Errorf("%q directive is not allowed here in %s:%d", name, ConfigFile, lineno)
			}
			if _, err := checkArgs(def, args); err != nil {
				return cfg, fmt.Errorf("%v in %s:%d", err, ConfigFile, lineno)
			}
			fr := frame{tag: name}
			switch name {
			case "events":
				fr.ctx = ctxEvents
				cfg.sawEvents = true
			case "http":
				fr.ctx = ctxHTTP
			case "server":
				fr.ctx = ctxServer
				cfg.servers = append(cfg.servers, vserver{})
				fr.srv = &cfg.servers[len(cfg.servers)-1]
			case "location":
				fr.ctx = ctxLocation
				fr.loc = &location{prefix: args[len(args)-1]}
			}
			stack = append(stack, fr)
		case strings.HasSuffix(t, ";"):
			name, args := splitDirectiveInto(trimTrailingBlank(t[:len(t)-1]), argsBuf)
			argsBuf = args[:0]
			def := lookupDirective(name)
			if def == nil {
				return cfg, fmt.Errorf("unknown directive %q in %s:%d", name, ConfigFile, lineno)
			}
			if def.kind == argBlock {
				return cfg, fmt.Errorf("directive %q has no terminating \";\" form in %s:%d", name, ConfigFile, lineno)
			}
			cur := stack[len(stack)-1].ctx
			if def.contexts&cur == 0 {
				return cfg, fmt.Errorf("%q directive is not allowed here in %s:%d", name, ConfigFile, lineno)
			}
			port, err := checkArgs(def, args)
			if err != nil {
				return cfg, fmt.Errorf("%v in %s:%d", err, ConfigFile, lineno)
			}
			top := stack[len(stack)-1]
			switch name {
			case "listen":
				for _, p := range top.srv.ports {
					if p == port {
						return cfg, fmt.Errorf("duplicate listen options for 127.0.0.1:%d in %s:%d", port, ConfigFile, lineno)
					}
				}
				top.srv.ports = append(top.srv.ports, port)
			case "server_name":
				top.srv.names = append(top.srv.names, args...)
			case "root":
				if top.loc != nil {
					top.loc.root = args[0]
				} else if top.srv != nil {
					top.srv.root = args[0]
				}
			}
		default:
			name, _ := splitDirectiveInto(t, argsBuf)
			return cfg, fmt.Errorf("directive %q is not terminated by \";\" in %s:%d", name, ConfigFile, lineno)
		}
	}
	if len(stack) != 1 {
		return cfg, fmt.Errorf(`unexpected end of file, expecting "}" in %s`, ConfigFile)
	}
	return cfg, nil
}

// splitDirectiveInto splits "name arg arg…" on whitespace, appending the
// args into buf (reset to length zero) so the parse loop reuses one
// backing array for every line. The returned args slice aliases buf's
// array; callers copy out what they keep. Splitting matches
// strings.Fields: any ASCII whitespace separates, with a fallback to
// Fields itself for the non-ASCII space runes it also recognizes.
func splitDirectiveInto(s string, buf []string) (name string, args []string) {
	buf = buf[:0]
	first := true
	for i := 0; i < len(s); {
		if s[i] >= utf8.RuneSelf {
			// Rare: a mutation introduced a non-ASCII byte. Defer to
			// strings.Fields so multi-byte space runes split identically.
			fields := strings.Fields(s)
			if len(fields) == 0 {
				return "", buf[:0]
			}
			return fields[0], append(buf[:0], fields[1:]...)
		}
		if asciiSpace[s[i]] {
			i++
			continue
		}
		j := i + 1
		for j < len(s) && s[j] < utf8.RuneSelf && !asciiSpace[s[j]] {
			j++
		}
		if j < len(s) && s[j] >= utf8.RuneSelf {
			fields := strings.Fields(s)
			if len(fields) == 0 {
				return "", buf[:0]
			}
			return fields[0], append(buf[:0], fields[1:]...)
		}
		if first {
			name, first = s[i:j], false
		} else {
			buf = append(buf, s[i:j])
		}
		i = j
	}
	return name, buf
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space —
// the set strings.Fields separates on for ASCII input.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// stripComment removes a trailing '#' comment from an already-trimmed
// line (a '#' opens a comment anywhere outside nginx's quoting, which
// the simulator does not model beyond single-quoted log formats). The
// IndexByte guard skips the quote-tracking scan on the comment-free
// lines that dominate real configurations.
func stripComment(t string) string {
	if strings.IndexByte(t, '#') < 0 {
		return t
	}
	inQuote := false
	for i := 0; i < len(t); i++ {
		switch t[i] {
		case '\'':
			inQuote = !inQuote
		case '#':
			if !inQuote {
				return trimTrailingBlank(t[:i])
			}
		}
	}
	return t
}

// trimTrailingBlank is strings.TrimRight(s, " \t") without the per-call
// cutset construction.
func trimTrailingBlank(s string) string {
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// httpClient returns the server's shared functional-test client. Its
// dials go through the configured transport (read at dial time, so
// SetTransport may come after Tests is built), and its keep-alive pool
// lets warm-reload experiments reuse connections to retained listeners.
func (s *Server) httpClient() *http.Client {
	s.clientOnce.Do(func() {
		s.client = &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				DialContext: func(ctx stdcontext.Context, network, addr string) (net.Conn, error) {
					return s.Transport().Dial(addr)
				},
				MaxIdleConnsPerHost: 4,
			},
		}
	})
	return s.client
}

// Tests returns the web-server diagnosis, the paper-style functional
// checks an administrator would run: a plain GET against the default
// server, a virtual-host GET that must be answered by the blog server,
// and a GET under /static/ that must be served from the static location.
//
// The probes run on the httpprobe fast path: requests are prebuilt once
// (on first use, after SetTransport has been applied), the connection
// stays warm across experiments, and a successful probe allocates
// nothing. Outcomes and error wording are byte-identical to
// ReferenceTests — the facade's contract test holds both paths to that.
func Tests(s *Server) []suts.Test {
	var (
		once                     sync.Once
		client                   *httpprobe.Client
		pDefault, pBlog, pStatic *httpprobe.Probe
	)
	setup := func() {
		client = httpprobe.NewClient(func(addr string) (net.Conn, error) {
			return s.Transport().Dial(addr)
		}, 5*time.Second)
		addr := fmt.Sprintf("127.0.0.1:%d", s.DefaultPort())
		pDefault = httpprobe.NewProbe(addr, "/", "")
		pBlog = httpprobe.NewProbe(addr, "/", "blog.example.com")
		pStatic = httpprobe.NewProbe(addr, "/static/logo.png", "")
	}
	// get takes a pointer to the probe variable: the probes are built
	// lazily (inside once.Do, so SetTransport has happened) and the Run
	// closures are created before that.
	get := func(pp **httpprobe.Probe) ([]byte, error) {
		once.Do(setup)
		status, body, err := client.Do(*pp)
		if err != nil {
			return nil, fmt.Errorf("GET: %w", err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("status %d", status)
		}
		return body, nil
	}
	return []suts.Test{
		{
			Name: "http-get",
			Run: func() error {
				body, err := get(&pDefault)
				if err != nil {
					return err
				}
				if !bytes.Contains(body, []byte("root=/var/www/html")) {
					return fmt.Errorf("default server did not serve the html root: %q", body)
				}
				return nil
			},
		},
		{
			Name: "vhost-blog",
			Run: func() error {
				body, err := get(&pBlog)
				if err != nil {
					return err
				}
				if !bytes.Contains(body, []byte("server=blog.example.com")) {
					return fmt.Errorf("blog virtual host not answering: %q", body)
				}
				return nil
			},
		},
		{
			Name: "static-location",
			Run: func() error {
				body, err := get(&pStatic)
				if err != nil {
					return err
				}
				if !bytes.Contains(body, []byte("root=/var/www/static")) {
					return fmt.Errorf("static location not matched: %q", body)
				}
				return nil
			},
		},
	}
}

// ReferenceTests is the pre-fast-path probe implementation on the stock
// net/http client, kept verbatim as the fidelity reference: the
// contract test runs every configuration through both paths and
// requires identical outcomes and error wording.
func ReferenceTests(s *Server) []suts.Test {
	get := func(path, host string) (string, error) {
		client := s.httpClient()
		req, err := http.NewRequest("GET", fmt.Sprintf("http://127.0.0.1:%d%s", s.DefaultPort(), path), nil)
		if err != nil {
			return "", err
		}
		if host != "" {
			req.Host = host
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", fmt.Errorf("GET: %w", err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		return string(body), nil
	}
	return []suts.Test{
		{
			Name: "http-get",
			Run: func() error {
				body, err := get("/", "")
				if err != nil {
					return err
				}
				if !strings.Contains(body, "root=/var/www/html") {
					return fmt.Errorf("default server did not serve the html root: %q", body)
				}
				return nil
			},
		},
		{
			Name: "vhost-blog",
			Run: func() error {
				body, err := get("/", "blog.example.com")
				if err != nil {
					return err
				}
				if !strings.Contains(body, "server=blog.example.com") {
					return fmt.Errorf("blog virtual host not answering: %q", body)
				}
				return nil
			},
		},
		{
			Name: "static-location",
			Run: func() error {
				body, err := get("/static/logo.png", "")
				if err != nil {
					return err
				}
				if !strings.Contains(body, "root=/var/www/static") {
					return fmt.Errorf("static location not matched: %q", body)
				}
				return nil
			},
		},
	}
}
