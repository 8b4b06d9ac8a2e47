package postgres

import (
	"fmt"
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
}

func TestFullConfigStarts(t *testing.T) {
	s := newServer(t)
	if err := s.Start(s.FullConfig()); err != nil {
		t.Fatalf("FullConfig does not start: %v", err)
	}
	defer s.Stop()
	for _, test := range Tests(s) {
		if err := test.Run(); err != nil {
			t.Errorf("functional test %s: %v", test.Name, err)
		}
	}
}

func TestUnrecognizedParameterFatal(t *testing.T) {
	s := newServer(t)
	err := startWith(t, s, "prot = 5432\n")
	if err == nil {
		s.Stop()
		t.Fatal("unknown parameter accepted")
	}
	if !suts.IsStartupError(err) || !strings.Contains(err.Error(), "unrecognized configuration parameter") {
		t.Errorf("err = %v", err)
	}
}

func TestCaseInsensitiveNames(t *testing.T) {
	// Table 2: Postgres accepts mixed-case directive names.
	s := newServer(t)
	if err := startWith(t, s, "MAX_Connections = 50\n"); err != nil {
		t.Fatalf("mixed-case name rejected: %v", err)
	}
	defer s.Stop()
	if s.settings.maxConn != 50 {
		t.Errorf("max_connections = %d", s.settings.maxConn)
	}
}

func TestTruncatedNamesRejected(t *testing.T) {
	// Table 2: Postgres does not accept truncated directive names.
	s := newServer(t)
	if err := startWith(t, s, "max_conn = 50\n"); err == nil {
		s.Stop()
		t.Fatal("truncated name accepted")
	}
}

func TestFindingCrossDirectiveConstraint(t *testing.T) {
	// Paper §5.2: replacing 153600 with 15600 in max_fsm_pages causes an
	// immediate shutdown explaining the 16 × max_fsm_relations rule.
	s := newServer(t)
	err := startWith(t, s, "max_fsm_pages = 15600\n")
	if err == nil {
		s.Stop()
		t.Fatal("constraint violation accepted")
	}
	if !strings.Contains(err.Error(), "max_fsm_relations * 16") {
		t.Errorf("constraint message missing: %v", err)
	}
	// Satisfying the constraint by lowering max_fsm_relations is fine.
	if err := startWith(t, s, "max_fsm_pages = 15600\nmax_fsm_relations = 100\n"); err != nil {
		t.Fatalf("satisfiable constraint rejected: %v", err)
	}
	s.Stop()
}

func TestOutOfRangeIsErrorNotClamp(t *testing.T) {
	s := newServer(t)
	err := startWith(t, s, "max_connections = 0\n")
	if err == nil {
		s.Stop()
		t.Fatal("out-of-range accepted")
	}
	if !strings.Contains(err.Error(), "outside the valid range") {
		t.Errorf("err = %v", err)
	}
}

func TestStrictNumericParsing(t *testing.T) {
	s := newServer(t)
	for _, bad := range []string{
		"max_connections = 1o0\n",   // letter inside digits
		"max_connections = 100x\n",  // junk suffix
		"max_connections = x\n",     // no digits
		"shared_buffers = 32MB0\n",  // junk after unit
		"shared_buffers = 32mb\n",   // wrong unit case (8.2 is exact)
		"shared_buffers = 32ZB\n",   // unknown unit
		"max_connections = 100MB\n", // unit on a unit-less parameter
	} {
		if err := startWith(t, s, bad); err == nil {
			s.Stop()
			t.Errorf("accepted %q", bad)
		}
	}
	for _, good := range []string{
		"shared_buffers = 32MB\n",
		"shared_buffers = 1GB\n",
		"shared_buffers = 4096kB\n",
		"shared_buffers = 4096\n", // bare number of pages
		"bgwriter_delay = 200ms\n",
		"checkpoint_timeout = 5min\n",
		"deadlock_timeout = 1s\n",
	} {
		if err := startWith(t, s, good); err != nil {
			t.Errorf("rejected %q: %v", good, err)
			continue
		}
		s.Stop()
	}
}

func TestEnumValidation(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "log_destination = 'stderrr'\n"); err == nil {
		s.Stop()
		t.Fatal("bad enum accepted")
	}
	if err := startWith(t, s, "log_min_messages = 'warning'\n"); err != nil {
		t.Fatalf("valid enum rejected: %v", err)
	}
	s.Stop()
	// List-valued enum: every element validated.
	if err := startWith(t, s, "datestyle = 'iso, mdy'\n"); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	s.Stop()
	if err := startWith(t, s, "datestyle = 'iso, mdx'\n"); err == nil {
		s.Stop()
		t.Fatal("bad list element accepted")
	}
}

func TestBoolValidation(t *testing.T) {
	s := newServer(t)
	for _, good := range []string{"on", "off", "true", "fal", "ye", "n", "1", "0", "TRUE"} {
		if err := startWith(t, s, "fsync = "+good+"\n"); err != nil {
			t.Errorf("bool %q rejected: %v", good, err)
			continue
		}
		s.Stop()
	}
	for _, bad := range []string{"onn", "o", "2", "tru3"} {
		if err := startWith(t, s, "fsync = "+bad+"\n"); err == nil {
			s.Stop()
			t.Errorf("bool %q accepted", bad)
		}
	}
}

// TestParseBoolMatchesPG15: the answers real PostgreSQL 15 gave for
// `fsync = <v>` under `postgres -C`, accepted values with their meaning.
func TestParseBoolMatchesPG15(t *testing.T) {
	def := &gucDef{name: "fsync"}
	for _, c := range []struct {
		v    string
		want bool
	}{{"of", false}, {"OF", false}, {"y", true}, {"tru", true}, {"1", true}} {
		if got, err := parseBool(c.v, def); err != nil || got != c.want {
			t.Errorf("parseBool(%q) = %v, %v; want %v", c.v, got, err, c.want)
		}
	}
	for _, v := range []string{"o", "0ff", "onn", "2"} {
		if got, err := parseBool(v, def); err == nil {
			t.Errorf("parseBool(%q) = %v, want an error", v, got)
		}
	}
}

func TestRealValidation(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "random_page_cost = 4.0\n"); err != nil {
		t.Fatalf("valid real rejected: %v", err)
	}
	s.Stop()
	if err := startWith(t, s, "random_page_cost = 4.o\n"); err == nil {
		s.Stop()
		t.Fatal("bad real accepted")
	}
}

func TestQuoteHandling(t *testing.T) {
	s := newServer(t)
	// Unterminated quote (a typo ate the closing quote) is a syntax error.
	if err := startWith(t, s, "lc_messages = 'C\n"); err == nil {
		s.Stop()
		t.Fatal("unterminated quote accepted")
	}
	// Escaped quote inside value.
	if err := startWith(t, s, "log_line_prefix = 'a''b'\n"); err != nil {
		t.Fatalf("escaped quote rejected: %v", err)
	}
	defer s.Stop()
	if got := s.settings.strs["log_line_prefix"]; got != "a'b" {
		t.Errorf("unquoted value = %q", got)
	}
}

func TestTrailingCommentStripped(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "max_connections = 42 # comment\n"); err != nil {
		t.Fatalf("trailing comment rejected: %v", err)
	}
	defer s.Stop()
	if s.settings.maxConn != 42 {
		t.Errorf("maxConn = %d", s.settings.maxConn)
	}
}

func TestListenAddressTypoFailsStartup(t *testing.T) {
	s := newServer(t)
	err := startWith(t, s, "listen_addresses = 'localhpst'\n")
	if err == nil {
		s.Stop()
		t.Fatal("bad listen address accepted")
	}
	if !strings.Contains(err.Error(), "could not translate host name") {
		t.Errorf("err = %v", err)
	}
}

func TestOptionalEqualsSign(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "max_connections 77\n"); err != nil {
		t.Fatalf("'=' -less assignment rejected: %v", err)
	}
	defer s.Stop()
	if s.settings.maxConn != 77 {
		t.Errorf("maxConn = %d", s.settings.maxConn)
	}
}

func TestSyntaxErrors(t *testing.T) {
	s := newServer(t)
	for _, bad := range []string{"max_connections\n", "= 5\n", "a b = 5\n"} {
		if err := startWith(t, s, bad); err == nil {
			s.Stop()
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestDeletionOfDirectiveIgnored(t *testing.T) {
	// Deleting a directive falls back to defaults: the system starts.
	s := newServer(t)
	conf := strings.Replace(string(s.DefaultConfig()[ConfigFile]), "max_connections = 100\n", "", 1)
	if err := startWith(t, s, conf); err != nil {
		t.Fatalf("deletion rejected: %v", err)
	}
	defer s.Stop()
	if s.settings.maxConn != 100 {
		t.Errorf("default maxConn = %d", s.settings.maxConn)
	}
}

func TestPortTypoCaughtByFunctionalTest(t *testing.T) {
	s := newServer(t)
	other := newServer(t) // just to allocate a second free port
	conf := strings.Replace(string(s.DefaultConfig()[ConfigFile]),
		fmt.Sprintf("port = %d", s.DefaultPort()),
		fmt.Sprintf("port = %d", other.DefaultPort()), 1)
	if err := startWith(t, s, conf); err != nil {
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
		t.Error("functional test should fail on mutated port")
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
		t.Error("Addr after stop should be empty")
	}
}

func TestMissingConfig(t *testing.T) {
	s := newServer(t)
	if err := s.Start(suts.Files{}); err == nil {
		s.Stop()
		t.Fatal("missing config accepted")
	}
}
