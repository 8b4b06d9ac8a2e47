package bind

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

	// Forward A lookup.
	resp, err := dnswire.Query(s.lo.DialPacket, defaultAddr(s), "www.example.com", dnswire.TypeA, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data != "192.0.2.10" {
		t.Errorf("A www = %+v", resp.Answers)
	}
	// Reverse PTR lookup.
	resp, err = dnswire.Query(s.lo.DialPacket, defaultAddr(s), "10.2.0.192.in-addr.arpa", dnswire.TypePTR, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data != "www.example.com" {
		t.Errorf("PTR = %+v", resp.Answers)
	}
	// CNAME chased for A queries.
	resp, err = dnswire.Query(s.lo.DialPacket, defaultAddr(s), "ftp.example.com", dnswire.TypeA, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 2 || resp.Answers[0].Type != dnswire.TypeCNAME || resp.Answers[1].Data != "192.0.2.10" {
		t.Errorf("CNAME chase = %+v", resp.Answers)
	}
	// NXDomain with SOA in authority.
	resp, err = dnswire.Query(s.lo.DialPacket, defaultAddr(s), "nx.example.com", dnswire.TypeA, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain || len(resp.Authority) != 1 {
		t.Errorf("NXDomain = %+v", resp)
	}
	// Out-of-zone query refused.
	resp, err = dnswire.Query(s.lo.DialPacket, defaultAddr(s), "other.org", dnswire.TypeA, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("out-of-zone rcode = %v", resp.RCode)
	}
}

// mutate returns the default config with one file's content replaced.
func mutate(s *Server, file, old, new string) suts.Files {
	files := s.DefaultConfig()
	files[file] = []byte(strings.Replace(string(files[file]), old, new, 1))
	return files
}

func TestFindingCNAMEAndOtherDataRefused(t *testing.T) {
	// Table 3 error (3): a CNAME whose owner also has NS data refuses the
	// zone — "found".
	s := newServer(t)
	files := s.DefaultConfig()
	files[ForwardZoneFile] = append(files[ForwardZoneFile],
		[]byte("@\tIN\tCNAME\twww.example.com.\n")...)
	err := s.Start(files)
	if err == nil {
		s.Stop()
		t.Fatal("CNAME and other data accepted")
	}
	if !strings.Contains(err.Error(), "CNAME and other data") {
		t.Errorf("err = %v", err)
	}
}

func TestFindingMXToCNAMERefused(t *testing.T) {
	// Table 3 error (4): MX pointing at an alias refuses the zone.
	s := newServer(t)
	files := mutate(s, ForwardZoneFile, "MX\t10 mail", "MX\t10 ftp")
	err := s.Start(files)
	if err == nil {
		s.Stop()
		t.Fatal("MX to CNAME accepted")
	}
	if !strings.Contains(err.Error(), "is a CNAME (illegal)") {
		t.Errorf("err = %v", err)
	}
}

func TestFindingNSToCNAMERefused(t *testing.T) {
	s := newServer(t)
	files := mutate(s, ForwardZoneFile, "NS\tns1.example.com.", "NS\tftp.example.com.")
	err := s.Start(files)
	if err == nil {
		s.Stop()
		t.Fatal("NS to CNAME accepted")
	}
}

func TestFindingMissingPTRNotDetected(t *testing.T) {
	// Table 3 error (1): BIND cannot know a PTR is missing — the zone
	// loads and the functional tests pass ("not found").
	s := newServer(t)
	files := mutate(s, ReverseZoneFile, "10\tIN\tPTR\twww.example.com.\n", "")
	if err := s.Start(files); err != nil {
		t.Fatalf("missing PTR detected at startup: %v", err)
	}
	defer s.Stop()
	for _, test := range Tests(s) {
		if err := test.Run(); err != nil {
			t.Errorf("functional test failed (should pass): %v", err)
		}
	}
}

func TestFindingPTRToCNAMENotDetected(t *testing.T) {
	// Table 3 error (2): a PTR retargeted to an alias loads fine.
	s := newServer(t)
	files := mutate(s, ReverseZoneFile, "10\tIN\tPTR\twww.example.com.", "10\tIN\tPTR\tftp.example.com.")
	if err := s.Start(files); err != nil {
		t.Fatalf("PTR to CNAME detected at startup: %v", err)
	}
	defer s.Stop()
	for _, test := range Tests(s) {
		if err := test.Run(); err != nil {
			t.Errorf("functional test failed (should pass): %v", err)
		}
	}
}

func TestZoneWithoutSOARefused(t *testing.T) {
	s := newServer(t)
	files := mutate(s, ForwardZoneFile,
		"@\tIN\tSOA\tns1.example.com. hostmaster.example.com. 2008060101 3600 900 604800 86400\n", "")
	if err := s.Start(files); err == nil {
		s.Stop()
		t.Fatal("zone without SOA accepted")
	}
}

func TestUnparseableZoneRefused(t *testing.T) {
	s := newServer(t)
	files := s.DefaultConfig()
	files[ForwardZoneFile] = []byte("www IN BOGUS data\n")
	if err := s.Start(files); err == nil {
		s.Stop()
		t.Fatal("unparseable zone accepted")
	}
}

func TestMissingZoneFile(t *testing.T) {
	s := newServer(t)
	files := s.DefaultConfig()
	delete(files, ReverseZoneFile)
	if err := s.Start(files); err == nil {
		s.Stop()
		t.Fatal("missing zone file accepted")
	} else if !strings.Contains(err.Error(), "file not found") {
		t.Errorf("err = %v", err)
	}
}

func TestMissingNamedConf(t *testing.T) {
	s := newServer(t)
	if err := s.Start(suts.Files{}); err == nil {
		s.Stop()
		t.Fatal("missing named.conf accepted")
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
	if s.Addr() != "" {
		t.Error("Addr after stop")
	}
}

func TestOrigins(t *testing.T) {
	o := Origins()
	if o[ForwardZoneFile] != "example.com" || o[ReverseZoneFile] != "2.0.192.in-addr.arpa" {
		t.Errorf("Origins = %v", o)
	}
}
