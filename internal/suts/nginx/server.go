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

	// refOnce builds ref, the tokens of the server's own default
	// configuration, on first use; check reuses them for every line a
	// configuration shares with it (see reference).
	refOnce sync.Once
	ref     *reference
}

// checkedConfig is a parsed-and-checked configuration: the effective
// server blocks and the unique ports to bind in configuration order. It
// is the unit apply consumes.
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

// reference returns the tokens of the server's default configuration,
// tokenizing it on first use. They are read-only from then on, so every
// lifecycle path shares them.
func (s *Server) reference() *reference {
	s.refOnce.Do(func() { s.ref = newReference(string(s.DefaultConfig()[ConfigFile])) })
	return s.ref
}

// check parses and validates a configuration without touching listener
// state. Errors carry nginx's startup wording.
func (s *Server) check(files suts.Files) (checkedConfig, error) {
	data, ok := files[ConfigFile]
	if !ok {
		return checkedConfig{}, &suts.StartupError{System: s.Name(), Msg: "missing " + ConfigFile}
	}
	cfg, err := parseLines(data, s.reference())
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

// ReloadDirty is Reload; the dirty set is ignored. Nothing in the
// program calls it. It stays because the benchmark's capability table
// (bench/wrap.go) lists suts.DirtyReloader.
func (s *Server) ReloadDirty(files suts.Files, _ []string) error { return s.Reload(files) }

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

// lineKind classifies one configuration line: blank, a lone "}", or by
// its last character.
type lineKind uint8

const (
	// lineBlank is an empty or comment-only line.
	lineBlank lineKind = iota
	// lineClose is a lone "}".
	lineClose
	// lineOpen ends in "{": a block directive.
	lineOpen
	// lineSimple ends in ";": a simple directive.
	lineSimple
	// lineUnterminated is any other line.
	lineUnterminated
)

// token is everything the parser derives from one line's text alone: its
// kind, the directive name and arguments, the directive's table entry
// and the verdict of its argument check. The context machine in
// parseLines adds what depends on the lines before it. A token's strings
// are substrings of its line, and its args slice is its own unless
// tokenize was handed a reused buffer.
type token struct {
	kind lineKind
	name string
	args []string
	// def is the directive's table entry, nil for an unknown name.
	def *directive
	// port and argErr are checkArgs' result. It runs only when def's
	// kind matches the line's (block on "{", simple on ";"): otherwise
	// the kind mismatch is the line's error and its args are never
	// checked.
	port   int
	argErr error
}

// tokenize derives a line's token, splitting its arguments into buf
// (reset to length zero).
func tokenize(line string, buf []string) token {
	t := stripComment(strings.TrimSpace(line))
	var tok token
	switch {
	case t == "":
		return token{kind: lineBlank}
	case t == "}":
		return token{kind: lineClose}
	case strings.HasSuffix(t, "{"):
		tok.kind = lineOpen
		tok.name, tok.args = splitDirectiveInto(trimTrailingBlank(t[:len(t)-1]), buf)
	case strings.HasSuffix(t, ";"):
		tok.kind = lineSimple
		tok.name, tok.args = splitDirectiveInto(trimTrailingBlank(t[:len(t)-1]), buf)
	default:
		tok.kind = lineUnterminated
		tok.name, tok.args = splitDirectiveInto(t, buf)
		return tok
	}
	tok.def = lookupDirective(tok.name)
	if tok.def != nil && (tok.def.kind == argBlock) == (tok.kind == lineOpen) {
		tok.port, tok.argErr = checkArgs(tok.def, tok.args)
	}
	return tok
}

// reference is one configuration's lines and their tokens, read-only
// once built. parseLines reuses a reference token for every line whose
// text equals the reference line at the same index, so a configuration
// that differs from the reference in a few lines, keeping its line
// count, tokenizes only those.
type reference struct {
	lines []string
	toks  []token
}

// newReference tokenizes every line of conf, each into its own args
// slice.
func newReference(conf string) *reference {
	ref := &reference{lines: strings.Split(conf, "\n")}
	ref.toks = make([]token, len(ref.lines))
	for i, line := range ref.lines {
		ref.toks[i] = tokenize(line, nil)
	}
	return ref
}

// match returns the reference token for line i, which starts at
// data[start], and the index of the line's end, when the text equals the
// reference line at index i; tok is nil when it does not. Reference
// lines are compared in place, so a line that matches is found without
// scanning it for its newline.
func (ref *reference) match(data []byte, start, i int) (tok *token, end int) {
	if ref == nil || !ref.at(data, start, i) {
		return nil, 0
	}
	return &ref.toks[i], start + len(ref.lines[i])
}

// at reports whether the reference has a line j and data holds exactly
// that line at start: its text, then a newline or the end of data. A
// reference line holds no newline, so one that runs to the end of data
// is the last line.
func (ref *reference) at(data []byte, start, j int) bool {
	if j < 0 || j >= len(ref.lines) {
		return false
	}
	l := ref.lines[j]
	end := start + len(l)
	return end <= len(data) && (end == len(data) || data[end] == '\n') && string(data[start:end]) == l
}

// parseConfig applies nginx's startup semantics to the configuration
// text: brace-block syntax, directive lookup, context checking and
// argument validation, erroring with nginx's wording.
func parseConfig(conf string) (parsed, error) { return parseLines([]byte(conf), nil) }

// parseLines is parseConfig over the file's bytes, reusing ref's tokens
// (see reference; a nil ref tokenizes every line). Only the lines
// tokenized afresh are scanned for their newline, and they split into
// one reused args buffer: the context machine consumes each token before
// the next line is read, and keeps only strings, never the args slice.
// The result is the same with or without ref — FuzzParseConfigReuse
// holds the two to it.
func parseLines(data []byte, ref *reference) (parsed, error) {
	var cfg parsed
	// A location frame (ctx ctxLocation) carries its location by value
	// until its "}" attaches it to the enclosing server.
	type frame struct {
		ctx context
		srv *vserver
		loc location
	}
	// Real configurations nest three or four blocks deep: a fixed array
	// holds the stack without allocating.
	var stackArr [8]frame
	stack := append(stackArr[:0], frame{ctx: ctxMain})
	var argsBuf []string
	var fresh token
	for i, start := 0, 0; start <= len(data); i++ {
		lineno := i + 1
		tok, end := ref.match(data, start, i)
		if tok == nil {
			end = len(data)
			if nl := bytes.IndexByte(data[start:], '\n'); nl >= 0 {
				end = start + nl
			}
			fresh = tokenize(string(data[start:end]), argsBuf)
			argsBuf = fresh.args[:0]
			tok = &fresh
		}
		start = end + 1
		switch tok.kind {
		case lineBlank:
			continue
		case lineClose:
			if len(stack) == 1 {
				return cfg, fmt.Errorf(`unexpected "}" in %s:%d`, ConfigFile, lineno)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.ctx == ctxLocation {
				// A closing location attaches to its enclosing server
				// (nested locations flatten onto the server, prefix
				// matching makes the nesting irrelevant at serve time).
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].srv != nil {
						stack[i].srv.locations = append(stack[i].srv.locations, top.loc)
						break
					}
				}
			}
		case lineOpen:
			def := tok.def
			if def == nil {
				return cfg, fmt.Errorf("unknown directive %q in %s:%d", tok.name, ConfigFile, lineno)
			}
			if def.kind != argBlock {
				return cfg, fmt.Errorf("directive %q has no opening \"{\" form in %s:%d", tok.name, ConfigFile, lineno)
			}
			if def.contexts&stack[len(stack)-1].ctx == 0 {
				return cfg, fmt.Errorf("%q directive is not allowed here in %s:%d", tok.name, ConfigFile, lineno)
			}
			if tok.argErr != nil {
				return cfg, fmt.Errorf("%v in %s:%d", tok.argErr, ConfigFile, lineno)
			}
			var fr frame
			switch tok.name {
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
				fr.loc.prefix = tok.args[len(tok.args)-1]
			}
			stack = append(stack, fr)
		case lineSimple:
			def := tok.def
			if def == nil {
				return cfg, fmt.Errorf("unknown directive %q in %s:%d", tok.name, ConfigFile, lineno)
			}
			if def.kind == argBlock {
				return cfg, fmt.Errorf("directive %q has no terminating \";\" form in %s:%d", tok.name, ConfigFile, lineno)
			}
			top := stack[len(stack)-1]
			if def.contexts&top.ctx == 0 {
				return cfg, fmt.Errorf("%q directive is not allowed here in %s:%d", tok.name, ConfigFile, lineno)
			}
			if tok.argErr != nil {
				return cfg, fmt.Errorf("%v in %s:%d", tok.argErr, ConfigFile, lineno)
			}
			switch tok.name {
			case "listen":
				if slices.Contains(top.srv.ports, tok.port) {
					return cfg, fmt.Errorf("duplicate listen options for 127.0.0.1:%d in %s:%d", tok.port, ConfigFile, lineno)
				}
				top.srv.ports = append(top.srv.ports, tok.port)
			case "server_name":
				top.srv.names = append(top.srv.names, tok.args...)
			case "root":
				if top.ctx == ctxLocation {
					stack[len(stack)-1].loc.root = tok.args[0]
				} else if top.srv != nil {
					top.srv.root = tok.args[0]
				}
			}
		default:
			return cfg, fmt.Errorf("directive %q is not terminated by \";\" in %s:%d", tok.name, ConfigFile, lineno)
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
