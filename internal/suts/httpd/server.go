package httpd

import (
	"bytes"
	stdcontext "context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"conferr/internal/suts"
	"conferr/internal/suts/httpprobe"
)

// ConfigFile is the logical name of the simulator's configuration file.
const ConfigFile = "httpd.conf"

// Server is the simulated Apache httpd. The embedded suts.Net carries
// its transport; its ports live in an httpprobe.Listeners.
type Server struct {
	suts.Net
	port int
	ls   httpprobe.Listeners

	clientOnce sync.Once
	client     *http.Client

	// baseMemo caches the checked parse of the campaign-baseline
	// httpd.conf across warm reloads (see suts.ParseMemo).
	baseMemo suts.ParseMemo[parsed]
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
			return nil, fmt.Errorf("httpd: %w", err)
		}
	}
	return &Server{port: port}, nil
}

// Name implements suts.System.
func (s *Server) Name() string { return "apache-sim" }

// DefaultPort returns the port of the default configuration.
func (s *Server) DefaultPort() int { return s.port }

// DefaultConfig implements suts.System: a configuration modeled on the
// stock httpd.conf of Apache 2.2, with 98 directives (paper §5.1)
// including nested sections.
func (s *Server) DefaultConfig() suts.Files {
	conf := fmt.Sprintf(`# Apache httpd 2.2 configuration
ServerRoot /etc/httpd
PidFile logs/httpd.pid
Timeout 120
KeepAlive Off
MaxKeepAliveRequests 100
KeepAliveTimeout 15
StartServers 8
MinSpareServers 5
MaxSpareServers 20
MaxClients 256
MaxRequestsPerChild 4000
Listen %d
LoadModule authz_host_module modules/mod_authz_host.so
LoadModule dir_module modules/mod_dir.so
LoadModule mime_module modules/mod_mime.so
LoadModule log_config_module modules/mod_log_config.so
LoadModule alias_module modules/mod_alias.so
LoadModule autoindex_module modules/mod_autoindex.so
LoadModule negotiation_module modules/mod_negotiation.so
LoadModule setenvif_module modules/mod_setenvif.so
User apache
Group apache
ServerAdmin root@localhost
ServerName www.example.com:80
UseCanonicalName Off
DocumentRoot /var/www/html
DirectoryIndex index.html index.html.var
AccessFileName .htaccess
TypesConfig /etc/mime.types
DefaultType text/plain
MimeMagicFile conf/magic
HostnameLookups Off
ErrorLog logs/error_log
LogLevel warn
LogFormat "%%h %%l %%u %%t \"%%r\" %%>s %%b" common
LogFormat "%%{Referer}i -> %%U" referer
LogFormat "%%{User-agent}i" agent
LogFormat "%%h %%l %%u %%t \"%%r\" %%>s %%b \"%%{Referer}i\" \"%%{User-Agent}i\"" combined
CustomLog logs/access_log combined
ServerTokens OS
ServerSignature On
Alias /icons/ /var/www/icons/
ScriptAlias /cgi-bin/ /var/www/cgi-bin/
IndexOptions FancyIndexing VersionSort NameWidth=*
AddIconByEncoding (CMP,/icons/compressed.gif) x-compress x-gzip
AddIconByType (TXT,/icons/text.gif) text/*
AddIconByType (IMG,/icons/image2.gif) image/*
AddIconByType (SND,/icons/sound2.gif) audio/*
AddIconByType (VID,/icons/movie.gif) video/*
AddIcon /icons/binary.gif .bin .exe
AddIcon /icons/binhex.gif .hqx
AddIcon /icons/tar.gif .tar
AddIcon /icons/world2.gif .wrl .vrml
AddIcon /icons/compressed.gif .Z .z .tgz .gz .zip
AddIcon /icons/a.gif .ps .ai .eps
AddIcon /icons/layout.gif .html .shtml .htm .pdf
AddIcon /icons/text.gif .txt
AddIcon /icons/c.gif .c
AddIcon /icons/p.gif .pl .py
AddIcon /icons/script.gif .conf .sh .shar
AddIcon /icons/folder.gif ^^DIRECTORY^^
AddIcon /icons/blank.gif ^^BLANKICON^^
DefaultIcon /icons/unknown.gif
ReadmeName README.html
HeaderName HEADER.html
AddLanguage ca .ca
AddLanguage cs .cz .cs
AddLanguage da .dk
AddLanguage de .de
AddLanguage en .en
AddLanguage es .es
AddLanguage fr .fr
AddLanguage it .it
AddLanguage ja .ja
AddLanguage pt .pt
LanguagePriority en ca cs da de es fr it ja pt
ForceLanguagePriority Prefer Fallback
AddType application/x-compress .Z
AddType application/x-gzip .gz .tgz
AddType application/x-tar .tar
AddType text/html .shtml
AddType application/x-x509-ca-cert .crt
AddType application/x-pkcs7-crl .crl
BrowserMatch "Mozilla/2" nokeepalive
BrowserMatch "MSIE 4\.0b2;" nokeepalive downgrade-1.0 force-response-1.0
BrowserMatch "RealPlayer 4\.0" force-response-1.0
BrowserMatch "Java/1\.0" force-response-1.0
BrowserMatch "JDK/1\.0" force-response-1.0
ErrorDocument 404 /missing.html

<Directory />
    Options FollowSymLinks
    AllowOverride None
</Directory>

<Directory /var/www/html>
    Options Indexes FollowSymLinks
    AllowOverride None
    Order allow,deny
    Allow from all
</Directory>

<Files ~ "^\.ht">
    Order allow,deny
    Deny from all
    Satisfy All
</Files>
`, s.port)
	return suts.Files{ConfigFile: []byte(conf)}
}

// vhost is one <VirtualHost> block: the name it answers to and a marker
// (its DocumentRoot) that responses embed, so functional tests can tell
// which host served them.
type vhost struct {
	serverName string
	docRoot    string
}

// parsed is the effective configuration.
type parsed struct {
	ports      []int
	serverName string
	vhosts     []vhost
}

// check parses and validates a configuration without touching listener
// state, erroring with httpd's startup wording.
func (s *Server) check(files suts.Files) (parsed, error) {
	data, ok := files[ConfigFile]
	if !ok {
		return parsed{}, &suts.StartupError{System: s.Name(), Msg: "missing " + ConfigFile}
	}
	cfg, err := parseConfig(string(data))
	if err != nil {
		return parsed{}, &suts.StartupError{System: s.Name(), Msg: err.Error()}
	}
	if len(cfg.ports) == 0 {
		return parsed{}, &suts.StartupError{System: s.Name(), Msg: "no listening sockets available (no Listen directive)"}
	}
	seen := map[int]bool{}
	for _, p := range cfg.ports {
		if seen[p] {
			return parsed{}, &suts.StartupError{System: s.Name(),
				Msg: fmt.Sprintf("could not bind to address 0.0.0.0:%d: Address already in use", p)}
		}
		seen[p] = true
	}
	return cfg, nil
}

// buildHandler renders one configuration's routing table.
func buildHandler(cfg parsed) httpprobe.Handler {
	vhosts := cfg.vhosts
	mainName := cfg.serverName
	return func(dst []byte, _, host []byte) ([]byte, int) {
		// Name-based virtual hosting: match the Host header against the
		// vhosts’ ServerNames; a vhost whose ServerName was omitted (the
		// §2.2 mistake) can never match, so its requests silently fall
		// through to the main server — misrouting only a functional test
		// of that host would notice.
		if i := bytes.LastIndexByte(host, ':'); i >= 0 {
			host = host[:i]
		}
		for _, v := range vhosts {
			if v.serverName != "" && nameMatchesBytes(v.serverName, host) {
				return renderVhostBody(dst, v.serverName, v.docRoot), 200
			}
		}
		return renderMainBody(dst, mainName), 200
	}
}

// renderVhostBody and renderMainBody append the response bodies — the
// same bytes the net/http handler's Fprintf produced, shared with the
// contract tests so the two probe paths cannot drift.
func renderVhostBody(dst []byte, serverName, docRoot string) []byte {
	dst = append(dst, "<html><body><h1>It works!</h1><p>"...)
	dst = append(dst, serverName...)
	dst = append(dst, "</p><p>root="...)
	dst = append(dst, docRoot...)
	return append(dst, "</p></body></html>\n"...)
}

func renderMainBody(dst []byte, serverName string) []byte {
	dst = append(dst, "<html><body><h1>It works!</h1><p>"...)
	dst = append(dst, serverName...)
	return append(dst, "</p></body></html>\n"...)
}

// Start implements suts.System.
func (s *Server) Start(files suts.Files) error { return s.configure(files) }

// Reload implements suts.Reloader: httpd's graceful-restart idiom.
// Configuration errors are rejected with Start's exact wording while the
// previous configuration keeps serving; ports shared between old and new
// configuration keep their listener, only the routing table is swapped.
func (s *Server) Reload(files suts.Files) error { return s.configure(files) }

// ReloadDirty implements suts.DirtyReloader: a clean httpd.conf carries
// the campaign baseline's bytes, so the memoized baseline parse is
// applied without re-parsing. Observationally identical to Reload.
func (s *Server) ReloadDirty(files suts.Files, dirty []string) error {
	cfg, err := s.baseMemo.Check(files, dirty, ConfigFile, s.check)
	if err != nil {
		return err
	}
	return s.apply(cfg)
}

// Validate implements suts.Validator: the `apachectl configtest` parse
// path. It detects exactly Start's configuration rejections; bind-time
// failures are invisible to it.
func (s *Server) Validate(files suts.Files) error {
	_, err := s.check(files)
	return err
}

// configure drives the server to the given configuration from whatever
// is currently bound. On error the previous state is untouched (empty
// for a cold start).
func (s *Server) configure(files suts.Files) error {
	cfg, err := s.check(files)
	if err != nil {
		return err
	}
	return s.apply(cfg)
}

// apply drives the listener and routing state to a checked
// configuration; every port serves the one routing table.
func (s *Server) apply(cfg parsed) error {
	h := buildHandler(cfg)
	return s.ls.Apply(s.Transport().Listen, "Apache-sim/2.2", cfg.ports,
		func(int) httpprobe.Handler { return h },
		func(p int, err error) error {
			return &suts.StartupError{System: s.Name(),
				Msg: fmt.Sprintf("could not bind to port %d: %v", p, err)}
		})
}

// Stop implements suts.System.
func (s *Server) Stop() error {
	s.ls.Close()
	return nil
}

// Health implements suts.HealthChecker.
func (s *Server) Health() error {
	if s.ls.Len() == 0 {
		return fmt.Errorf("apache-sim: no listeners bound")
	}
	return nil
}

// Addr implements suts.Addressable (first configured port’s listener).
func (s *Server) Addr() string { return s.ls.Addr() }

// nameMatchesBytes compares a ServerName (which may carry a ":port"
// suffix) against a request host, case-insensitively and without
// allocating (both sides are ASCII).
func nameMatchesBytes(serverName string, host []byte) bool {
	if i := strings.LastIndexByte(serverName, ':'); i >= 0 {
		serverName = serverName[:i]
	}
	return httpprobe.EqualFold(host, serverName)
}

// parseConfig applies httpd's configuration semantics: nested sections
// with context checking, case-insensitive directive lookup, per-kind
// argument validation.
func parseConfig(conf string) (parsed, error) {
	var cfg parsed
	type frame struct {
		ctx   context
		tag   string
		vhost *vhost
	}
	stack := []frame{{ctx: ctxServer}}
	for lineno, line := range strings.Split(conf, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(t, "</"):
			if !strings.HasSuffix(t, ">") || len(stack) == 1 {
				return cfg, fmt.Errorf("syntax error on line %d: %s without matching section", lineno+1, t)
			}
			name := strings.TrimSpace(t[2 : len(t)-1])
			top := stack[len(stack)-1]
			if !strings.EqualFold(top.tag, name) {
				return cfg, fmt.Errorf("syntax error on line %d: expected </%s> but saw </%s>",
					lineno+1, top.tag, name)
			}
			stack = stack[:len(stack)-1]
		case strings.HasPrefix(t, "<"):
			if !strings.HasSuffix(t, ">") {
				return cfg, fmt.Errorf("syntax error on line %d: malformed section", lineno+1)
			}
			inner := t[1 : len(t)-1]
			tag := inner
			if i := strings.IndexAny(inner, " \t"); i >= 0 {
				tag = inner[:i]
			}
			var ctx context
			switch strings.ToLower(tag) {
			case "directory", "location":
				ctx = ctxDirectory
			case "files", "filesmatch":
				ctx = ctxFiles
			case "virtualhost":
				ctx = ctxVirtualHost
			case "ifmodule":
				// Transparent container: inherits the enclosing context.
				ctx = stack[len(stack)-1].ctx
			default:
				return cfg, fmt.Errorf("syntax error on line %d: unknown section <%s>", lineno+1, tag)
			}
			fr := frame{ctx: ctx, tag: tag}
			if ctx == ctxVirtualHost {
				cfg.vhosts = append(cfg.vhosts, vhost{})
				fr.vhost = &cfg.vhosts[len(cfg.vhosts)-1]
			}
			stack = append(stack, fr)
		default:
			name := t
			args := ""
			if i := strings.IndexAny(t, " \t"); i >= 0 {
				name, args = t[:i], strings.TrimSpace(t[i:])
			}
			def := lookupDirective(name)
			if def == nil {
				return cfg, fmt.Errorf(
					"Invalid command '%s', perhaps misspelled or defined by a module not included in the server configuration",
					name)
			}
			ctx := stack[len(stack)-1].ctx
			if !def.allowedIn(ctx) {
				return cfg, fmt.Errorf("%s not allowed here", def.name)
			}
			port, err := validateArgs(def, args)
			if err != nil {
				return cfg, err
			}
			top := stack[len(stack)-1]
			switch {
			case def.kind == argPort:
				cfg.ports = append(cfg.ports, port)
			case strings.EqualFold(def.name, "ServerName"):
				if top.vhost != nil {
					top.vhost.serverName = args
				} else {
					cfg.serverName = args
				}
			case strings.EqualFold(def.name, "DocumentRoot") && top.vhost != nil:
				top.vhost.docRoot = args
			}
		}
	}
	if len(stack) != 1 {
		return cfg, fmt.Errorf("syntax error: unclosed section <%s>", stack[len(stack)-1].tag)
	}
	return cfg, nil
}

// httpClient returns the server’s shared functional-test client; dials
// go through the configured transport, read at dial time.
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

// Tests returns the paper's web-server diagnosis (§5.1): an HTTP GET of
// a page from the default port, on the httpprobe fast path (prebuilt
// request, warm connection, zero allocations on success). Outcomes and
// error wording are byte-identical to ReferenceTests — the facade's
// contract test holds both paths to that.
func Tests(s *Server) []suts.Test {
	var (
		once   sync.Once
		client *httpprobe.Client
		probe  *httpprobe.Probe
	)
	return []suts.Test{{
		Name: "http-get",
		Run: func() error {
			once.Do(func() {
				client = httpprobe.NewClient(func(addr string) (net.Conn, error) {
					return s.Transport().Dial(addr)
				}, 5*time.Second)
				probe = httpprobe.NewProbe(fmt.Sprintf("127.0.0.1:%d", s.DefaultPort()), "/", "")
			})
			status, _, err := client.Do(probe)
			if err != nil {
				return fmt.Errorf("GET: %w", err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("status %d", status)
			}
			return nil
		},
	}}
}

// ReferenceTests is the pre-fast-path probe implementation on the stock
// net/http client, kept verbatim as the fidelity reference for the
// contract test.
func ReferenceTests(s *Server) []suts.Test {
	return []suts.Test{{
		Name: "http-get",
		Run: func() error {
			client := s.httpClient()
			resp, err := client.Get(fmt.Sprintf("http://127.0.0.1:%d/", s.DefaultPort()))
			if err != nil {
				return fmt.Errorf("GET: %w", err)
			}
			defer func() { _ = resp.Body.Close() }()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			return nil
		},
	}}
}
