package conferr

import (
	"fmt"
	"strings"
	"testing"

	"conferr/internal/memnet"
	"conferr/internal/suts"
	"conferr/internal/suts/httpd"
	"conferr/internal/suts/nginx"
)

// These tests are the fidelity contract of the httpprobe fast path
// (ISSUE 7): for every registered target the probes must succeed against
// a started baseline, and for the HTTP targets — the ones whose probes
// moved off net/http — every configuration variant must produce
// byte-identical outcomes and error wording on the fast path and on the
// retained net/http reference path, over both kernel TCP and memnet.

// outcomes runs each test and renders its result: "name=ok" or
// "name=<error text>".
func outcomes(tests []suts.Test) []string {
	out := make([]string, 0, len(tests))
	for _, tc := range tests {
		if err := tc.Run(); err != nil {
			out = append(out, tc.Name+"="+err.Error())
		} else {
			out = append(out, tc.Name+"=ok")
		}
	}
	return out
}

// TestProbeContractRegisteredTargets starts every registered target's
// baseline configuration and requires every functional probe to pass —
// the smoke half of the contract, covering targets whose probes are not
// HTTP at all.
func TestProbeContractRegisteredTargets(t *testing.T) {
	registerTestEntries(t)
	for _, name := range RegisteredTargets() {
		name := name
		t.Run(name, func(t *testing.T) {
			f, err := LookupTarget(name)
			if err != nil {
				t.Fatal(err)
			}
			st, err := f(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.System.Start(st.System.DefaultConfig()); err != nil {
				t.Fatalf("baseline start: %v", err)
			}
			defer func() { _ = st.System.Stop() }()
			for _, got := range outcomes(st.Target.Tests) {
				if !strings.HasSuffix(got, "=ok") {
					t.Errorf("baseline probe failed: %s", got)
				}
			}
		})
	}
}

// nginxVariant mutates the default configuration the way the typo
// faultload does, with the probe outcome the variant must produce.
type httpVariant struct {
	name   string
	mutate func(conf string) string
}

func nginxVariants() []httpVariant {
	return []httpVariant{
		{"baseline", func(c string) string { return c }},
		// The html root typo'd: http-get sees the wrong marker.
		{"root-typo", func(c string) string {
			return strings.ReplaceAll(c, "root /var/www/html;", "root /var/www/htlm;")
		}},
		// The blog server_name typo'd: vhost-blog falls back to the
		// default server.
		{"server-name-typo", func(c string) string {
			return strings.ReplaceAll(c, "server_name blog.example.com;", "server_name blog.exmaple.com;")
		}},
		// The static location removed: static-location is served by the
		// catch-all.
		{"static-location-dropped", func(c string) string {
			return strings.ReplaceAll(c, "location /static/ {", "location /static-other/ {")
		}},
	}
}

// runHTTPContrast starts sys with files, runs the fast and the
// reference probes against the same live instance, and requires
// identical outcome strings. It returns the fast outcomes for golden
// checks.
func runHTTPContrast(t *testing.T, sys suts.System, files suts.Files, fast, ref []suts.Test) []string {
	t.Helper()
	if err := sys.Start(files); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() { _ = sys.Stop() }()
	got := outcomes(fast)
	want := outcomes(ref)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fast/reference divergence:\n  fast: %s\n  ref:  %s", got[i], want[i])
		}
	}
	return got
}

func TestProbeContractNginx(t *testing.T) {
	for _, transport := range []string{"tcp", "memnet"} {
		transport := transport
		t.Run(transport, func(t *testing.T) {
			for _, v := range nginxVariants() {
				v := v
				t.Run(v.name, func(t *testing.T) {
					s, err := nginx.New(0)
					if err != nil {
						t.Fatal(err)
					}
					if transport == "memnet" {
						s.SetTransport(memnet.New())
					}
					files := s.DefaultConfig()
					files[nginx.ConfigFile] = []byte(v.mutate(string(files[nginx.ConfigFile])))
					runHTTPContrast(t, s, files, nginx.Tests(s), nginx.ReferenceTests(s))
				})
			}

			// Refused: probe a stopped server through clients that held a
			// warm connection — both paths must report the kernel's
			// refusal wording, byte for byte.
			t.Run("refused-after-stop", func(t *testing.T) {
				s, err := nginx.New(0)
				if err != nil {
					t.Fatal(err)
				}
				if transport == "memnet" {
					s.SetTransport(memnet.New())
				}
				fast, ref := nginx.Tests(s), nginx.ReferenceTests(s)
				if err := s.Start(s.DefaultConfig()); err != nil {
					t.Fatal(err)
				}
				// Warm both clients' connections.
				outcomes(fast)
				outcomes(ref)
				if err := s.Stop(); err != nil {
					t.Fatal(err)
				}
				got := outcomes(fast)
				want := outcomes(ref)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("fast/reference divergence:\n  fast: %s\n  ref:  %s", got[i], want[i])
					}
				}
				golden := fmt.Sprintf(
					`http-get=GET: Get "http://127.0.0.1:%d/": dial tcp 127.0.0.1:%d: connect: connection refused`,
					s.DefaultPort(), s.DefaultPort())
				if got[0] != golden {
					t.Errorf("refused wording:\n  got:  %s\n  want: %s", got[0], golden)
				}
			})
		})
	}
}

// TestProbeContractNginxGolden pins the exact failure wording of the
// body-check probes so a drift in either probe path (or the serving
// body) fails loudly, not just relatively.
func TestProbeContractNginxGolden(t *testing.T) {
	s, err := nginx.New(0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetTransport(memnet.New())
	files := s.DefaultConfig()
	conf := string(files[nginx.ConfigFile])
	conf = strings.ReplaceAll(conf, "root /var/www/html;", "root /var/www/htlm;")
	files[nginx.ConfigFile] = []byte(conf)
	got := runHTTPContrast(t, s, files, nginx.Tests(s), nginx.ReferenceTests(s))
	want := `http-get=default server did not serve the html root: "<html><body><h1>Welcome to nginx-sim!</h1><p>server=www.example.com</p><p>location=/</p><p>root=/var/www/htlm</p></body></html>\n"`
	if got[0] != want {
		t.Errorf("body-mismatch wording:\n  got:  %s\n  want: %s", got[0], want)
	}
}

func TestProbeContractHTTPD(t *testing.T) {
	variants := []httpVariant{
		{"baseline", func(c string) string { return c }},
	}
	for _, transport := range []string{"tcp", "memnet"} {
		transport := transport
		t.Run(transport, func(t *testing.T) {
			for _, v := range variants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					s, err := httpd.New(0)
					if err != nil {
						t.Fatal(err)
					}
					if transport == "memnet" {
						s.SetTransport(memnet.New())
					}
					files := s.DefaultConfig()
					files[httpd.ConfigFile] = []byte(v.mutate(string(files[httpd.ConfigFile])))
					runHTTPContrast(t, s, files, httpd.Tests(s), httpd.ReferenceTests(s))
				})
			}
			t.Run("refused-after-stop", func(t *testing.T) {
				s, err := httpd.New(0)
				if err != nil {
					t.Fatal(err)
				}
				if transport == "memnet" {
					s.SetTransport(memnet.New())
				}
				fast, ref := httpd.Tests(s), httpd.ReferenceTests(s)
				if err := s.Start(s.DefaultConfig()); err != nil {
					t.Fatal(err)
				}
				outcomes(fast)
				outcomes(ref)
				if err := s.Stop(); err != nil {
					t.Fatal(err)
				}
				got := outcomes(fast)
				want := outcomes(ref)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("fast/reference divergence:\n  fast: %s\n  ref:  %s", got[i], want[i])
					}
				}
			})
		})
	}
}
