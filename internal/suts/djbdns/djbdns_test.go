package djbdns

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"conferr/internal/dnswire"
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

func defaultAddr(s *Server) string {
	return fmt.Sprintf("127.0.0.1:%d", s.DefaultPort())
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

	// '=' lines serve both the A and the derived PTR.
	resp, err := dnswire.Query(s.lo.DialPacket, defaultAddr(s), "www.example.com", dnswire.TypeA, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data != "192.0.2.10" {
		t.Errorf("A www = %+v", resp.Answers)
	}
	resp, err = dnswire.Query(s.lo.DialPacket, defaultAddr(s), "10.2.0.192.in-addr.arpa", dnswire.TypePTR, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data != "www.example.com" {
		t.Errorf("PTR = %+v", resp.Answers)
	}
}

func TestFindingNoConsistencyChecks(t *testing.T) {
	// Table 3 errors (3) and (4): tinydns accepts a CNAME duplicating the
	// NS owner and an MX pointing at an alias — "not found".
	s := newServer(t)
	files := s.DefaultConfig()
	data := string(files[DataFile])
	data += "Cexample.com:www.example.com:3600\n"
	data = strings.Replace(data,
		"@example.com::mail.example.com:10:3600",
		"@example.com::ftp.example.com:10:3600", 1)
	files[DataFile] = []byte(data)
	if err := s.Start(files); err != nil {
		t.Fatalf("consistency fault detected at startup (tinydns has no such checks): %v", err)
	}
	defer s.Stop()
	for _, test := range Tests(s) {
		if err := test.Run(); err != nil {
			t.Errorf("functional test failed (should pass): %v", err)
		}
	}
}

func TestSyntaxErrorsDetected(t *testing.T) {
	s := newServer(t)
	for _, bad := range []string{
		"Xunknown.example.com:1.2.3.4\n",
		"=www.example.com:not-an-ip:3600\n",
	} {
		files := suts.Files{DataFile: []byte(bad)}
		if err := s.Start(files); err == nil {
			s.Stop()
			t.Errorf("accepted %q", bad)
		} else if !suts.IsStartupError(err) {
			t.Errorf("err type = %T", err)
		}
	}
}

func TestMissingDataFile(t *testing.T) {
	s := newServer(t)
	if err := s.Start(suts.Files{}); err == nil {
		s.Stop()
		t.Fatal("missing data file accepted")
	}
}

func TestNXDomain(t *testing.T) {
	s := newServer(t)
	if err := s.Start(s.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	resp, err := dnswire.Query(s.lo.DialPacket, defaultAddr(s), "nx.example.com", dnswire.TypeA, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestCNAMEChase(t *testing.T) {
	s := newServer(t)
	if err := s.Start(s.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	resp, err := dnswire.Query(s.lo.DialPacket, defaultAddr(s), "webmail.example.com", dnswire.TypeA, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 2 || resp.Answers[1].Data != "192.0.2.20" {
		t.Errorf("chase = %+v", resp.Answers)
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
