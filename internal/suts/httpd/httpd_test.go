package httpd

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"conferr/internal/suts"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func startWith(t *testing.T, s *Server, conf string) error {
	t.Helper()
	return s.Start(suts.Files{ConfigFile: []byte(conf)})
}

func minimalConf(port int) string {
	return fmt.Sprintf("Listen %d\nServerName test.example.com\n", port)
}

func TestDefaultConfigStartsAndServes(t *testing.T) {
	s := newServer(t)
	if err := s.Start(s.DefaultConfig()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Stop()
	for _, test := range Tests(s) {
		if err := test.Run(); err != nil {
			t.Errorf("functional test %s: %v", test.Name, err)
		}
	}
	resp, err := http.Get("http://" + s.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Server"); !strings.Contains(got, "Apache-sim") {
		t.Errorf("Server header = %q", got)
	}
}

func TestDefaultConfigHas98Directives(t *testing.T) {
	// Paper §5.1: Apache's default configuration has 98 directives.
	s := newServer(t)
	conf := string(s.DefaultConfig()[ConfigFile])
	count := 0
	for _, line := range strings.Split(conf, "\n") {
		tl := strings.TrimSpace(line)
		if tl == "" || strings.HasPrefix(tl, "#") || strings.HasPrefix(tl, "<") {
			continue
		}
		count++
	}
	if count != 98 {
		t.Errorf("default config has %d directives, want 98", count)
	}
}

func TestUnknownDirectiveRejected(t *testing.T) {
	s := newServer(t)
	err := startWith(t, s, "Lisden 8080\n")
	if err == nil {
		s.Stop()
		t.Fatal("typo in directive name accepted")
	}
	if !suts.IsStartupError(err) || !strings.Contains(err.Error(), "Invalid command") {
		t.Errorf("err = %v", err)
	}
}

func TestCaseInsensitiveNames(t *testing.T) {
	// Table 2: Apache accepts mixed-case directive names.
	s := newServer(t)
	if err := startWith(t, s, fmt.Sprintf("LISTEN %d\nservername x\n", s.DefaultPort())); err != nil {
		t.Fatalf("mixed-case rejected: %v", err)
	}
	s.Stop()
}

func TestTruncatedNamesRejected(t *testing.T) {
	// Table 2: Apache does not accept truncated directive names.
	s := newServer(t)
	if err := startWith(t, s, fmt.Sprintf("List %d\n", s.DefaultPort())); err == nil {
		s.Stop()
		t.Fatal("truncated name accepted")
	}
}

// Paper §5.2 Apache flaw findings as regression tests.

func TestFindingFreeformMimeAndAdminValues(t *testing.T) {
	s := newServer(t)
	conf := minimalConf(s.DefaultPort()) + `AddType not-a-mime-type .x
DefaultType garbage!!
ServerAdmin not an email or URL
`
	if err := startWith(t, s, conf); err != nil {
		t.Fatalf("freeform values rejected, want accepted (the flaw): %v", err)
	}
	s.Stop()
}

func TestFindingServerNameAcceptsAnything(t *testing.T) {
	s := newServer(t)
	conf := fmt.Sprintf("Listen %d\nServerName ...definitely not a hostname!!!\n", s.DefaultPort())
	if err := startWith(t, s, conf); err != nil {
		t.Fatalf("ServerName junk rejected, want accepted (the flaw): %v", err)
	}
	s.Stop()
}

func TestListenRequiresNumericPort(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "Listen 80a80\n"); err == nil {
		s.Stop()
		t.Fatal("non-numeric port accepted")
	}
	if err := startWith(t, s, "Listen 123456\n"); err == nil {
		s.Stop()
		t.Fatal("out-of-range port accepted")
	}
}

func TestListenPortTypoCaughtByFunctionalTest(t *testing.T) {
	// The paper's 5%: a typo that yields a different valid port starts the
	// server on the wrong port; only the functional test notices.
	s := newServer(t)
	other := newServer(t)
	if err := startWith(t, s, minimalConf(other.DefaultPort())); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Stop()
	failed := false
	for _, test := range Tests(s) {
		if test.Run() != nil {
			failed = true
		}
	}
	if !failed {
		t.Error("functional test should fail when Listen port is mutated")
	}
}

func TestDuplicateListenRejected(t *testing.T) {
	s := newServer(t)
	p := s.DefaultPort()
	err := startWith(t, s, fmt.Sprintf("Listen %d\nListen %d\n", p, p))
	if err == nil {
		s.Stop()
		t.Fatal("duplicate Listen accepted")
	}
	if !strings.Contains(err.Error(), "already in use") {
		t.Errorf("err = %v", err)
	}
}

func TestMultipleListenPorts(t *testing.T) {
	s := newServer(t)
	other := newServer(t)
	conf := fmt.Sprintf("Listen %d\nListen %d\n", s.DefaultPort(), other.DefaultPort())
	if err := startWith(t, s, conf); err != nil {
		t.Fatalf("two Listen ports rejected: %v", err)
	}
	defer s.Stop()
	for _, p := range []int{s.DefaultPort(), other.DefaultPort()} {
		resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/", p))
		if err != nil {
			t.Errorf("GET port %d: %v", p, err)
			continue
		}
		resp.Body.Close()
	}
}

func TestNoListenDirective(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "ServerName x\n"); err == nil {
		s.Stop()
		t.Fatal("config without Listen accepted")
	}
}

func TestNumericDirectiveValidation(t *testing.T) {
	s := newServer(t)
	base := minimalConf(s.DefaultPort())
	for _, bad := range []string{"Timeout 12o\n", "MaxClients abc\n", "MaxClients 0\n"} {
		if err := startWith(t, s, base+bad); err == nil {
			s.Stop()
			t.Errorf("accepted %q", bad)
		}
	}
	if err := startWith(t, s, base+"Timeout 300\n"); err != nil {
		t.Errorf("valid Timeout rejected: %v", err)
	} else {
		s.Stop()
	}
}

func TestKeywordDirectiveValidation(t *testing.T) {
	s := newServer(t)
	base := minimalConf(s.DefaultPort())
	for _, bad := range []string{
		"LogLevel wran\n",
		"KeepAlive Onn\n",
		"ServerTokens Fulll\n",
	} {
		if err := startWith(t, s, base+bad); err == nil {
			s.Stop()
			t.Errorf("accepted %q", bad)
		}
	}
	if err := startWith(t, s, base+"LogLevel debug\nKeepAlive On\n"); err != nil {
		t.Errorf("valid keywords rejected: %v", err)
	} else {
		s.Stop()
	}
}

func TestOptionsKeywordsValidated(t *testing.T) {
	s := newServer(t)
	base := minimalConf(s.DefaultPort())
	conf := base + "<Directory />\nOptions Indexes FolowSymLinks\n</Directory>\n"
	if err := startWith(t, s, conf); err == nil {
		s.Stop()
		t.Fatal("bad Options keyword accepted")
	}
	conf = base + "<Directory />\nOptions +Indexes -FollowSymLinks\n</Directory>\n"
	if err := startWith(t, s, conf); err != nil {
		t.Fatalf("+/- Options rejected: %v", err)
	}
	s.Stop()
}

func TestContextRestrictions(t *testing.T) {
	s := newServer(t)
	base := minimalConf(s.DefaultPort())
	// AllowOverride is only legal inside <Directory>.
	if err := startWith(t, s, base+"AllowOverride None\n"); err == nil {
		s.Stop()
		t.Fatal("AllowOverride at top level accepted")
	} else if !strings.Contains(err.Error(), "not allowed here") {
		t.Errorf("err = %v", err)
	}
	// Listen inside a Directory section is rejected.
	conf := base + fmt.Sprintf("<Directory />\nListen %d\n</Directory>\n", s.DefaultPort()+1)
	if err := startWith(t, s, conf); err == nil {
		s.Stop()
		t.Fatal("Listen inside Directory accepted")
	}
}

func TestIfModuleInheritsContext(t *testing.T) {
	s := newServer(t)
	conf := minimalConf(s.DefaultPort()) + "<IfModule mime_module>\nAddType text/html .shtml\n</IfModule>\n"
	if err := startWith(t, s, conf); err != nil {
		t.Fatalf("IfModule container rejected: %v", err)
	}
	s.Stop()
}

func TestLoadModuleValidation(t *testing.T) {
	s := newServer(t)
	base := minimalConf(s.DefaultPort())
	if err := startWith(t, s, base+"LoadModule mime_module modules/mod_mime.so\n"); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
	s.Stop()
	for _, bad := range []string{
		"LoadModule mime_moduel modules/mod_mime.so\n",
		"LoadModule mime_module modules/mod_mme.so\n",
		"LoadModule mime_module\n",
	} {
		if err := startWith(t, s, base+bad); err == nil {
			s.Stop()
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestSectionSyntaxErrors(t *testing.T) {
	s := newServer(t)
	base := minimalConf(s.DefaultPort())
	for _, bad := range []string{
		"<Directory />\n",              // unclosed
		"</Directory>\n",               // close without open
		"<Directory />\n</Files>\n",    // mismatch
		"<Bogus>\n</Bogus>\n",          // unknown section
		"<Directory /\nOptions None\n", // malformed
	} {
		if err := startWith(t, s, base+bad); err == nil {
			s.Stop()
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestRestartable(t *testing.T) {
	s := newServer(t)
	for i := 0; i < 3; i++ {
		if err := s.Start(s.DefaultConfig()); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if err := s.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Stop(); err != nil {
		t.Errorf("idle Stop: %v", err)
	}
}

func TestMissingConfig(t *testing.T) {
	s := newServer(t)
	if err := s.Start(suts.Files{}); err == nil {
		s.Stop()
		t.Fatal("missing config accepted")
	}
}

// vhostConf builds a config with two named virtual hosts.
func vhostConf(port int) string {
	return fmt.Sprintf(`Listen %d
ServerName main.example.com
<VirtualHost *:%d>
    ServerName a.example.com
    DocumentRoot /var/www/a
</VirtualHost>
<VirtualHost *:%d>
    ServerName b.example.com
    DocumentRoot /var/www/b
</VirtualHost>
`, port, port, port)
}

// getHost performs an HTTP GET with an explicit Host header and returns
// the body.
func getHost(t *testing.T, addr, host string) string {
	t.Helper()
	req, err := http.NewRequest("GET", "http://"+addr+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = host
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	return string(buf[:n])
}

func TestVirtualHostRouting(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, vhostConf(s.DefaultPort())); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Stop()
	if body := getHost(t, s.Addr(), "a.example.com"); !strings.Contains(body, "root=/var/www/a") {
		t.Errorf("vhost a body = %q", body)
	}
	if body := getHost(t, s.Addr(), "b.example.com"); !strings.Contains(body, "root=/var/www/b") {
		t.Errorf("vhost b body = %q", body)
	}
	// Unknown host falls through to the main server.
	if body := getHost(t, s.Addr(), "other.example.com"); !strings.Contains(body, "main.example.com") {
		t.Errorf("default body = %q", body)
	}
}

func TestFindingServerNameOmissionInVHostTolerated(t *testing.T) {
	// The paper's §2.2 motivating example: omitting the ServerName that
	// "has to be present in each subsection". Apache starts anyway; the
	// vhost silently stops matching and its requests land on the main
	// server — only a host-specific functional test notices.
	s := newServer(t)
	conf := strings.Replace(vhostConf(s.DefaultPort()), "    ServerName a.example.com\n", "", 1)
	if err := startWith(t, s, conf); err != nil {
		t.Fatalf("ServerName omission rejected at startup, want tolerated: %v", err)
	}
	defer s.Stop()
	body := getHost(t, s.Addr(), "a.example.com")
	if strings.Contains(body, "root=/var/www/a") {
		t.Error("nameless vhost still matched; omission had no effect")
	}
	if !strings.Contains(body, "main.example.com") {
		t.Errorf("misrouted request body = %q", body)
	}
	// The sibling vhost is unaffected.
	if body := getHost(t, s.Addr(), "b.example.com"); !strings.Contains(body, "root=/var/www/b") {
		t.Errorf("vhost b broken by sibling's omission: %q", body)
	}
}

// TestReloadDroppedPortRefusesWarmProbe pins reload against cold: once a
// reload moves Listen from P1 to P2, the probe's warm keep-alive
// connection to P1 is gone with the port, so the probe is refused
// exactly as it is after a cold start on P2.
func TestReloadDroppedPortRefusesWarmProbe(t *testing.T) {
	other := newServer(t)
	p2 := other.DefaultPort()

	warm := newServer(t)
	if err := startWith(t, warm, minimalConf(warm.DefaultPort())); err != nil {
		t.Fatal(err)
	}
	probe := Tests(warm)[0]
	if err := probe.Run(); err != nil {
		t.Fatalf("probe before reload: %v", err)
	}
	if err := warm.Reload(suts.Files{ConfigFile: []byte(minimalConf(p2))}); err != nil {
		t.Fatal(err)
	}
	warmErr := probe.Run()
	warm.Stop()

	cold, err := New(warm.DefaultPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := startWith(t, cold, minimalConf(p2)); err != nil {
		t.Fatal(err)
	}
	defer cold.Stop()
	coldErr := Tests(cold)[0].Run()

	if warmErr == nil || coldErr == nil || warmErr.Error() != coldErr.Error() {
		t.Errorf("probe of the dropped port after reload: %v\nafter a cold start: %v", warmErr, coldErr)
	}
	if coldErr != nil && !strings.Contains(coldErr.Error(), "connection refused") {
		t.Errorf("cold probe err = %v, want connection refused", coldErr)
	}
}
