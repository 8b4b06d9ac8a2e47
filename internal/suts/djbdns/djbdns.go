// Package djbdns simulates the djbdns 1.05 tinydns server for ConfErr
// campaigns. It serves real DNS over UDP and reproduces the behaviours the
// paper's Table 3 rests on (§5.4):
//
//   - the "=" data directive defines an address record and its reverse
//     PTR together, so whole classes of inconsistency cannot even be
//     written down — a strength of the configuration format;
//   - tinydns performs NO cross-record consistency checking: a CNAME
//     duplicating an NS owner or an MX pointing at an alias loads and
//     serves without complaint — errors (3) and (4) are not found.
//
// tinydns-data does validate line syntax (unknown directive characters and
// malformed addresses are rejected), which the simulator preserves.
package djbdns

import (
	"fmt"

	"conferr/internal/dnsmodel"
	"conferr/internal/dnswire"
	"conferr/internal/suts"
	"conferr/internal/suts/dnscheck"
)

// DataFile is the logical name of tinydns's data file.
const DataFile = "data"

// Server is the simulated tinydns server.
type Server struct {
	port int
	lo   suts.LoopbackTransport

	srv     *dnswire.Server
	records []dnsmodel.Record
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
			return nil, fmt.Errorf("djbdns: %w", err)
		}
	}
	return &Server{port: port}, nil
}

// Name implements suts.System.
func (s *Server) Name() string { return "djbdns-sim" }

// DefaultPort returns the port of the default configuration.
func (s *Server) DefaultPort() int { return s.port }

// DefaultConfig implements suts.System: the tinydns-data equivalent of the
// BIND simulator's zones. The hosts use "=" lines, which define the A and
// PTR records together; RP and HINFO have no native tinydns directive and
// are omitted (documented substitution, DESIGN.md).
func (s *Server) DefaultConfig() suts.Files {
	data := `# tinydns-data for example.com and its reverse zone
.example.com::ns1.example.com:3600
.2.0.192.in-addr.arpa::ns1.example.com:3600
=ns1.example.com:192.0.2.1:3600
=www.example.com:192.0.2.10:3600
=mail.example.com:192.0.2.20:3600
Cftp.example.com:www.example.com:3600
Cwebmail.example.com:mail.example.com:3600
@example.com::mail.example.com:10:3600
'example.com:v=spf1 mx -all:3600
`
	return suts.Files{DataFile: []byte(data)}
}

// Start implements suts.System: run the tinydns-data compilation (syntax
// checking only — no consistency checks) and serve the records.
func (s *Server) Start(files suts.Files) error {
	data, ok := files[DataFile]
	if !ok {
		return &suts.StartupError{System: s.Name(), Msg: "missing " + DataFile}
	}
	recs, err := dnsmodel.ParseTinyData(DataFile, data)
	if err != nil {
		return &suts.StartupError{System: s.Name(), Msg: err.Error()}
	}
	s.records = recs

	srv := dnswire.NewServer(s.answer)
	if err := srv.Listen(s.lo.ListenPacket, fmt.Sprintf("127.0.0.1:%d", s.port)); err != nil {
		return &suts.StartupError{System: s.Name(), Msg: err.Error()}
	}
	s.srv = srv
	return nil
}

// answer resolves one question; tinydns follows CNAMEs one hop within its
// own data.
func (s *Server) answer(q dnswire.Question) ([]dnswire.RR, []dnswire.RR, dnswire.RCode) {
	name := dnsmodel.Canon(q.Name)
	var answers []dnswire.RR
	nameExists := false
	for _, r := range s.records {
		if r.Owner != name {
			continue
		}
		nameExists = true
		t, _ := dnswire.TypeFromString(r.Type)
		if q.Type == dnswire.TypeANY || t == q.Type {
			answers = append(answers, dnswire.RR{Name: r.Owner, Type: t, TTL: r.TTL, Data: r.Data})
		} else if r.Type == "CNAME" {
			answers = append(answers, dnswire.RR{Name: r.Owner, Type: dnswire.TypeCNAME, TTL: r.TTL, Data: r.Data})
			for _, tr := range s.records {
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
		return nil, nil, dnswire.RCodeNoError
	}
	return nil, nil, dnswire.RCodeNXDomain
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
