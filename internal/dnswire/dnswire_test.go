package dnswire

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"conferr/internal/suts"
)

// lo is the kernel loopback transport the server tests run on.
var lo suts.LoopbackTransport

func TestTypeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeMX.String() != "MX" || Type(999).String() != "TYPE999" {
		t.Error("type names wrong")
	}
	if tt, ok := TypeFromString("cname"); !ok || tt != TypeCNAME {
		t.Error("TypeFromString failed")
	}
	if _, ok := TypeFromString("BOGUS"); ok {
		t.Error("bogus type resolved")
	}
}

func TestCanonicalName(t *testing.T) {
	if CanonicalName("WWW.Example.COM.") != "www.example.com" {
		t.Error("canonicalization wrong")
	}
	if CanonicalName("") != "" {
		t.Error("empty name")
	}
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	wire, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return dec
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		ID:               0x1234,
		Response:         true,
		Authoritative:    true,
		RecursionDesired: true,
		RCode:            RCodeNXDomain,
		Questions:        []Question{{Name: "www.example.com", Type: TypeA}},
		Answers: []RR{
			{Name: "www.example.com", Type: TypeA, TTL: 3600, Data: "192.0.2.10"},
			{Name: "example.com", Type: TypeMX, TTL: 3600, Data: "10 mail.example.com"},
			{Name: "alias.example.com", Type: TypeCNAME, TTL: 60, Data: "www.example.com"},
			{Name: "example.com", Type: TypeTXT, TTL: 60, Data: "hello world"},
			{Name: "10.2.0.192.in-addr.arpa", Type: TypePTR, TTL: 60, Data: "www.example.com"},
			{Name: "example.com", Type: TypeSOA, TTL: 60,
				Data: "ns1.example.com hostmaster.example.com 2008060101 3600 900 604800 86400"},
		},
		Authority: []RR{
			{Name: "example.com", Type: TypeNS, TTL: 3600, Data: "ns1.example.com"},
		},
	}
	dec := roundTrip(t, m)
	if dec.ID != m.ID || !dec.Response || !dec.Authoritative || !dec.RecursionDesired {
		t.Errorf("header = %+v", dec)
	}
	if dec.RCode != RCodeNXDomain {
		t.Errorf("rcode = %v", dec.RCode)
	}
	if len(dec.Questions) != 1 || dec.Questions[0].Name != "www.example.com" || dec.Questions[0].Type != TypeA {
		t.Errorf("questions = %+v", dec.Questions)
	}
	if len(dec.Answers) != len(m.Answers) {
		t.Fatalf("answers = %d, want %d", len(dec.Answers), len(m.Answers))
	}
	for i, rr := range dec.Answers {
		want := m.Answers[i]
		if rr.Name != CanonicalName(want.Name) || rr.Type != want.Type || rr.TTL != want.TTL {
			t.Errorf("answer %d = %+v, want %+v", i, rr, want)
		}
	}
	if dec.Answers[0].Data != "192.0.2.10" {
		t.Errorf("A data = %q", dec.Answers[0].Data)
	}
	if dec.Answers[1].Data != "10 mail.example.com" {
		t.Errorf("MX data = %q", dec.Answers[1].Data)
	}
	if dec.Answers[3].Data != "hello world" {
		t.Errorf("TXT data = %q", dec.Answers[3].Data)
	}
	if !strings.HasPrefix(dec.Answers[5].Data, "ns1.example.com hostmaster.example.com 2008060101") {
		t.Errorf("SOA data = %q", dec.Answers[5].Data)
	}
	if len(dec.Authority) != 1 || dec.Authority[0].Data != "ns1.example.com" {
		t.Errorf("authority = %+v", dec.Authority)
	}
}

func TestHINFOAndRP(t *testing.T) {
	m := &Message{
		ID:        7,
		Questions: []Question{{Name: "h.example.com", Type: TypeHINFO}},
		Answers: []RR{
			{Name: "h.example.com", Type: TypeHINFO, TTL: 60, Data: "i386 linux"},
			{Name: "h.example.com", Type: TypeRP, TTL: 60, Data: "admin.example.com txt.example.com"},
		},
	}
	dec := roundTrip(t, m)
	if dec.Answers[0].Data != "i386 linux" {
		t.Errorf("HINFO = %q", dec.Answers[0].Data)
	}
	if dec.Answers[1].Data != "admin.example.com txt.example.com" {
		t.Errorf("RP = %q", dec.Answers[1].Data)
	}
}

func TestEncodeErrors(t *testing.T) {
	bad := []*Message{
		{Answers: []RR{{Name: "x", Type: TypeA, Data: "not-an-ip"}}},
		{Answers: []RR{{Name: "x", Type: TypeA, Data: "1.2.3.999"}}},
		{Answers: []RR{{Name: "x", Type: TypeMX, Data: "nopref"}}},
		{Answers: []RR{{Name: "x", Type: TypeMX, Data: "p host"}}},
		{Answers: []RR{{Name: "x", Type: TypeSOA, Data: "a b 1 2 3"}}},
		{Answers: []RR{{Name: strings.Repeat("a", 64) + ".com", Type: TypeA, Data: "1.2.3.4"}}},
		{Answers: []RR{{Name: "x..y", Type: TypeA, Data: "1.2.3.4"}}},
	}
	for i, m := range bad {
		if _, err := m.Encode(); err == nil {
			t.Errorf("case %d: Encode succeeded", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short message decoded")
	}
	// Claimed question but no body.
	hdr := make([]byte, 12)
	hdr[5] = 1 // QDCOUNT=1
	if _, err := Decode(hdr); err == nil {
		t.Error("truncated question decoded")
	}
	// Compression loop: name pointer to itself.
	msg := make([]byte, 16)
	msg[5] = 1
	msg[12] = 0xC0
	msg[13] = 12
	if _, err := Decode(msg); err == nil {
		t.Error("compression loop decoded")
	}
}

func TestNameCompressionDecode(t *testing.T) {
	// Build a message manually with a compressed name in the answer.
	m := &Message{ID: 9, Questions: []Question{{Name: "www.example.com", Type: TypeA}}}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Append an answer whose name is a pointer to offset 12 (the question
	// name) — exercising the decompression path.
	wire[7] = 1                      // ANCOUNT = 1
	wire = append(wire, 0xC0, 12)    // name: pointer
	wire = append(wire, 0, 1, 0, 1)  // type A, class IN
	wire = append(wire, 0, 0, 0, 60) // TTL
	wire = append(wire, 0, 4, 192, 0, 2, 1)
	dec, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Answers) != 1 || dec.Answers[0].Name != "www.example.com" || dec.Answers[0].Data != "192.0.2.1" {
		t.Errorf("answer = %+v", dec.Answers)
	}
}

func TestServerAndQuery(t *testing.T) {
	srv := NewServer(func(q Question) ([]RR, []RR, RCode) {
		if q.Name == "www.example.com" && q.Type == TypeA {
			return []RR{{Name: q.Name, Type: TypeA, TTL: 60, Data: "192.0.2.10"}}, nil, RCodeNoError
		}
		return nil, nil, RCodeNXDomain
	})
	if err := srv.Listen(lo.ListenPacket, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Fatal("no addr")
	}

	resp, err := Query(lo.DialPacket, srv.Addr(), "www.example.com", TypeA, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != RCodeNoError || len(resp.Answers) != 1 || resp.Answers[0].Data != "192.0.2.10" {
		t.Errorf("resp = %+v", resp)
	}

	resp, err = Query(lo.DialPacket, srv.Addr(), "nx.example.com", TypeA, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != RCodeNXDomain {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(func(Question) ([]RR, []RR, RCode) { return nil, nil, RCodeNoError })
	if err := srv.Listen(lo.ListenPacket, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if srv.Addr() != "" {
		t.Error("Addr after close")
	}
}

func TestReverseName(t *testing.T) {
	got, err := ReverseName("192.0.2.10")
	if err != nil || got != "10.2.0.192.in-addr.arpa" {
		t.Errorf("ReverseName = %q, %v", got, err)
	}
	if _, err := ReverseName("not-ip"); err == nil {
		t.Error("bad IP accepted")
	}
}

// Property: names that survive encoding decode to their canonical form.
func TestPropertyNameRoundTrip(t *testing.T) {
	f := func(labels []string) bool {
		var clean []string
		for _, l := range labels {
			l = strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
					return r
				}
				return -1
			}, strings.ToLower(l))
			if l != "" && len(l) <= 63 {
				clean = append(clean, l)
			}
			if len(clean) == 4 {
				break
			}
		}
		if len(clean) == 0 {
			return true
		}
		name := strings.Join(clean, ".")
		buf, err := encodeName(nil, name)
		if err != nil {
			return false
		}
		dec, _, err := decodeName(buf, 0)
		return err == nil && dec == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
