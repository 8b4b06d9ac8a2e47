package dnscheck

import (
	"strings"
	"testing"

	"conferr/internal/dnswire"
	"conferr/internal/suts"
)

// lo is the kernel loopback transport the tests run on.
var lo suts.LoopbackTransport

// fakeDNS serves a fixed record set for tests.
func fakeDNS(t *testing.T, soaZones map[string]bool, records map[string]string) string {
	t.Helper()
	srv := dnswire.NewServer(func(q dnswire.Question) ([]dnswire.RR, []dnswire.RR, dnswire.RCode) {
		if q.Type == dnswire.TypeSOA && soaZones[q.Name] {
			return []dnswire.RR{{
				Name: q.Name, Type: dnswire.TypeSOA, TTL: 60,
				Data: "ns1.example.com hostmaster.example.com 1 2 3 4 5",
			}}, nil, dnswire.RCodeNoError
		}
		if q.Type == dnswire.TypeA {
			if ip, ok := records[q.Name]; ok {
				return []dnswire.RR{{Name: q.Name, Type: dnswire.TypeA, TTL: 60, Data: ip}}, nil, dnswire.RCodeNoError
			}
		}
		return nil, nil, dnswire.RCodeNXDomain
	})
	if err := srv.Listen(lo.ListenPacket, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr()
}

func TestZoneLivenessTests(t *testing.T) {
	addr := fakeDNS(t, map[string]bool{"example.com": true}, nil)
	tests := ZoneLivenessTests(&lo, addr, []string{"example.com", "missing.org"})
	if len(tests) != 2 {
		t.Fatalf("tests = %d", len(tests))
	}
	if err := tests[0].Run(); err != nil {
		t.Errorf("live zone failed: %v", err)
	}
	if err := tests[1].Run(); err == nil {
		t.Error("dead zone passed")
	} else if !strings.Contains(err.Error(), "missing.org") {
		t.Errorf("err = %v", err)
	}
}

func TestZoneLivenessUnreachableServer(t *testing.T) {
	tests := ZoneLivenessTests(&lo, "127.0.0.1:1", []string{"example.com"})
	if err := tests[0].Run(); err == nil {
		t.Error("unreachable server passed")
	}
}
