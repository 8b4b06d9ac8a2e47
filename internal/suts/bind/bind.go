// Package bind simulates the ISC BIND 9.4 name server for ConfErr
// campaigns. It serves real DNS over UDP (via internal/dnswire) and
// reproduces the zone-loading behaviour the paper's Table 3 rests on
// (§5.4):
//
//   - a name that has both a CNAME and other data refuses the zone
//     ("CNAME and other data") — error (3) is found;
//   - an MX or NS record whose target is a CNAME refuses the zone
//     ("... is a CNAME (illegal)") — error (4) is found;
//   - a missing PTR or a PTR pointing at an alias is NOT checked (the
//     consistency is cross-zone) — errors (1) and (2) are not found;
//   - a zone without an SOA record is refused.
package bind

import (
	"fmt"
	"regexp"
	"strings"

	"conferr/internal/dnsmodel"
	"conferr/internal/dnswire"
	"conferr/internal/suts"
	"conferr/internal/suts/dnscheck"
)

// File names in the simulator's configuration set.
const (
	// ConfigFile is the main configuration (named.conf).
	ConfigFile = "named.conf"
	// ForwardZoneFile is the example.com zone.
	ForwardZoneFile = "example.zone"
	// ReverseZoneFile is the 2.0.192.in-addr.arpa zone.
	ReverseZoneFile = "reverse.zone"
)

// Server is the simulated BIND name server.
type Server struct {
	port int
	lo   suts.LoopbackTransport

	srv   *dnswire.Server
	zones map[string][]dnsmodel.Record
}

var _ suts.System = (*Server)(nil)
var _ suts.Addressable = (*Server)(nil)
var _ suts.HostSetter = (*Server)(nil)

// New returns a simulator whose default configuration listens on the given
// UDP port (0 picks a free one at construction time).
func New(port int) (*Server, error) {
	var err error
	if port == 0 {
		if port, err = suts.FreePort("udp"); err != nil {
			return nil, fmt.Errorf("bind: %w", err)
		}
	}
	return &Server{port: port}, nil
}

// Name implements suts.System.
func (s *Server) Name() string { return "bind-sim" }

// DefaultPort returns the port of the default configuration.
func (s *Server) DefaultPort() int { return s.port }

// Origins maps the default zone files to their origins, as needed by
// dnsmodel.ZoneRecordView.
func Origins() map[string]string {
	return map[string]string{
		ForwardZoneFile: "example.com",
		ReverseZoneFile: "2.0.192.in-addr.arpa",
	}
}

// DefaultConfig implements suts.System: named.conf plus a forward zone
// with hosts, mail exchangers, TXT, RP and HINFO records and aliases, and
// a reverse zone mapping the addresses back — the paper's §5.4 setup.
func (s *Server) DefaultConfig() suts.Files {
	named := fmt.Sprintf(`options {
    listen-on port %d { 127.0.0.1; };
    directory "/var/named";
};
zone "example.com" {
    type master;
    file "example.zone";
};
zone "2.0.192.in-addr.arpa" {
    type master;
    file "reverse.zone";
};
`, s.port)
	forward := `$TTL 3600
$ORIGIN example.com.
@	IN	SOA	ns1.example.com. hostmaster.example.com. 2008060101 3600 900 604800 86400
@	IN	NS	ns1.example.com.
ns1	IN	A	192.0.2.1
www	IN	A	192.0.2.10
mail	IN	A	192.0.2.20
ftp	IN	CNAME	www
webmail	IN	CNAME	mail
@	IN	MX	10 mail
@	IN	TXT	"v=spf1 mx -all"
www	IN	RP	hostmaster.example.com. txt.example.com.
www	IN	HINFO	"i386" "linux"
`
	reverse := `$TTL 3600
$ORIGIN 2.0.192.in-addr.arpa.
@	IN	SOA	ns1.example.com. hostmaster.example.com. 2008060101 3600 900 604800 86400
@	IN	NS	ns1.example.com.
1	IN	PTR	ns1.example.com.
10	IN	PTR	www.example.com.
20	IN	PTR	mail.example.com.
`
	return suts.Files{
		ConfigFile:      []byte(named),
		ForwardZoneFile: []byte(forward),
		ReverseZoneFile: []byte(reverse),
	}
}

var (
	listenRe = regexp.MustCompile(`listen-on\s+port\s+(\d+)`)
	zoneRe   = regexp.MustCompile(`zone\s+"([^"]+)"\s*\{[^}]*file\s+"([^"]+)"`)
)

// Start implements suts.System: parse named.conf, load and check every
// zone, then serve DNS over UDP.
func (s *Server) Start(files suts.Files) error {
	named, ok := files[ConfigFile]
	if !ok {
		return &suts.StartupError{System: s.Name(), Msg: "missing " + ConfigFile}
	}
	port := 53
	if m := listenRe.FindSubmatch(named); m != nil {
		if _, err := fmt.Sscanf(string(m[1]), "%d", &port); err != nil {
			return &suts.StartupError{System: s.Name(), Msg: "bad listen-on port"}
		}
	}
	zoneDefs := zoneRe.FindAllSubmatch(named, -1)
	if len(zoneDefs) == 0 {
		return &suts.StartupError{System: s.Name(), Msg: "no zones configured"}
	}

	zones := make(map[string][]dnsmodel.Record, len(zoneDefs))
	for _, zd := range zoneDefs {
		origin, file := string(zd[1]), string(zd[2])
		data, ok := files[file]
		if !ok {
			return &suts.StartupError{System: s.Name(),
				Msg: fmt.Sprintf("zone %s/IN: loading master file %s: file not found", origin, file)}
		}
		recs, err := dnsmodel.ParseZoneFile(file, data, origin)
		if err != nil {
			return &suts.StartupError{System: s.Name(),
				Msg: fmt.Sprintf("zone %s/IN: loading master file %s: %v", origin, file, err)}
		}
		if err := checkZone(origin, recs); err != nil {
			return &suts.StartupError{System: s.Name(),
				Msg: fmt.Sprintf("zone %s/IN: %v", origin, err)}
		}
		zones[dnsmodel.Canon(origin)] = recs
	}
	s.zones = zones

	srv := dnswire.NewServer(s.answer)
	if err := srv.Listen(s.lo.ListenPacket, fmt.Sprintf("127.0.0.1:%d", port)); err != nil {
		return &suts.StartupError{System: s.Name(), Msg: err.Error()}
	}
	s.srv = srv
	return nil
}

// checkZone applies BIND's zone sanity checks.
func checkZone(origin string, recs []dnsmodel.Record) error {
	hasSOA := false
	cnames := make(map[string]string) // owner -> target
	others := make(map[string]bool)   // owners with non-CNAME data
	for _, r := range recs {
		if r.Type == "SOA" && r.Owner == dnsmodel.Canon(origin) {
			hasSOA = true
		}
		if r.Type == "CNAME" {
			if prev, dup := cnames[r.Owner]; dup && prev != r.Data {
				return fmt.Errorf("multiple CNAME records for %s", r.Owner)
			}
			cnames[r.Owner] = r.Data
		} else {
			others[r.Owner] = true
		}
	}
	if !hasSOA {
		return fmt.Errorf("has no SOA record")
	}
	// Error (3): CNAME and other data for the same name.
	for owner := range cnames {
		if others[owner] {
			return fmt.Errorf("loading master file: %s: CNAME and other data", owner)
		}
	}
	// Error (4): MX/NS targets must not be aliases (within the zone).
	for _, r := range recs {
		switch r.Type {
		case "MX":
			fields := strings.Fields(r.Data)
			if len(fields) == 2 {
				if _, isAlias := cnames[fields[1]]; isAlias {
					return fmt.Errorf("%s/MX '%s' is a CNAME (illegal)", r.Owner, fields[1])
				}
			}
		case "NS":
			if _, isAlias := cnames[r.Data]; isAlias {
				return fmt.Errorf("%s/NS '%s' is a CNAME (illegal)", r.Owner, r.Data)
			}
		}
	}
	return nil
}

// answer resolves one question against the loaded zones, following one
// CNAME hop like an authoritative server.
func (s *Server) answer(q dnswire.Question) ([]dnswire.RR, []dnswire.RR, dnswire.RCode) {
	name := dnsmodel.Canon(q.Name)
	zone := s.findZone(name)
	if zone == "" {
		return nil, nil, dnswire.RCodeRefused
	}
	var answers []dnswire.RR
	nameExists := false
	for _, r := range s.zones[zone] {
		if r.Owner != name {
			continue
		}
		nameExists = true
		t, _ := dnswire.TypeFromString(r.Type)
		if q.Type == dnswire.TypeANY || t == q.Type {
			answers = append(answers, dnswire.RR{Name: r.Owner, Type: t, TTL: r.TTL, Data: r.Data})
		} else if r.Type == "CNAME" {
			// Return the alias and chase the target once.
			answers = append(answers, dnswire.RR{Name: r.Owner, Type: dnswire.TypeCNAME, TTL: r.TTL, Data: r.Data})
			for _, tr := range s.zones[zone] {
				tt, _ := dnswire.TypeFromString(tr.Type)
				if tr.Owner == r.Data && tt == q.Type {
					answers = append(answers, dnswire.RR{Name: tr.Owner, Type: tt, TTL: tr.TTL, Data: tr.Data})
				}
			}
		}
	}
	if len(answers) > 0 {
		return answers, nil, dnswire.RCodeNoError
	}
	if nameExists {
		return nil, s.soaOf(zone), dnswire.RCodeNoError
	}
	return nil, s.soaOf(zone), dnswire.RCodeNXDomain
}

// findZone returns the longest configured zone that is a suffix of name.
func (s *Server) findZone(name string) string {
	best := ""
	for zone := range s.zones {
		if name == zone || strings.HasSuffix(name, "."+zone) {
			if len(zone) > len(best) {
				best = zone
			}
		}
	}
	return best
}

func (s *Server) soaOf(zone string) []dnswire.RR {
	for _, r := range s.zones[zone] {
		if r.Type == "SOA" {
			return []dnswire.RR{{Name: r.Owner, Type: dnswire.TypeSOA, TTL: r.TTL, Data: r.Data}}
		}
	}
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

// Tests returns the paper's name-server diagnosis (§5.1): the forward
// and the reverse zone answer their SOA queries on the default port,
// asked on the server's host.
func Tests(s *Server) []suts.Test {
	return dnscheck.ZoneLivenessTests(&s.lo, fmt.Sprintf("127.0.0.1:%d", s.port),
		[]string{"example.com", "2.0.192.in-addr.arpa"})
}

// Addr implements suts.Addressable.
func (s *Server) Addr() string {
	if s.srv == nil {
		return ""
	}
	return s.srv.Addr()
}
