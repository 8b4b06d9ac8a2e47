package mysqld

import (
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
	files := s.DefaultConfig()
	if err := s.Start(files); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := s.Stop(); err != nil {
			t.Errorf("Stop: %v", err)
		}
	}()
	for _, test := range Tests(s) {
		if err := test.Run(); err != nil {
			t.Errorf("functional test %s: %v", test.Name, err)
		}
	}
	if s.Addr() == "" {
		t.Error("Addr empty after start")
	}
}

func TestRestartable(t *testing.T) {
	s := newServer(t)
	for i := 0; i < 3; i++ {
		if err := s.Start(s.DefaultConfig()); err != nil {
			t.Fatalf("round %d Start: %v", i, err)
		}
		if err := s.Stop(); err != nil {
			t.Fatalf("round %d Stop: %v", i, err)
		}
	}
	// Stop without start is safe.
	if err := s.Stop(); err != nil {
		t.Errorf("idle Stop: %v", err)
	}
}

func TestUnknownVariableRejected(t *testing.T) {
	s := newServer(t)
	err := startWith(t, s, "[mysqld]\nprot = 3306\n")
	if err == nil {
		s.Stop()
		t.Fatal("typo in directive name accepted")
	}
	if !suts.IsStartupError(err) || !strings.Contains(err.Error(), "unknown variable") {
		t.Errorf("err = %v", err)
	}
}

func TestCaseSensitiveNames(t *testing.T) {
	// Table 2: MySQL does not accept mixed-case directive names.
	s := newServer(t)
	err := startWith(t, s, "[mysqld]\nPort = 3306\n")
	if err == nil {
		s.Stop()
		t.Fatal("mixed-case name accepted")
	}
}

func TestTruncatedNamesAccepted(t *testing.T) {
	// Table 2: MySQL accepts unambiguous prefixes of option names.
	s := newServer(t)
	if err := startWith(t, s, "[mysqld]\nmax_c = 10\n"); err != nil {
		t.Fatalf("unambiguous prefix rejected: %v", err)
	}
	defer s.Stop()
	if s.settings.maxConn != 10 {
		t.Errorf("max_connections = %d, want 10", s.settings.maxConn)
	}
}

func TestAmbiguousPrefixRejected(t *testing.T) {
	s := newServer(t)
	// "max_" matches max_allowed_packet and max_connections.
	err := startWith(t, s, "[mysqld]\nmax_ = 10\n")
	if err == nil {
		s.Stop()
		t.Fatal("ambiguous prefix accepted")
	}
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("err = %v", err)
	}
}

func TestDashUnderscoreEquivalence(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "[mysqld]\nmax-connections = 12\n"); err != nil {
		t.Fatalf("dashed name rejected: %v", err)
	}
	defer s.Stop()
	if s.settings.maxConn != 12 {
		t.Errorf("max_connections = %d", s.settings.maxConn)
	}
}

// The paper's §5.2 MySQL findings, each as a regression test.

func TestFindingOutOfBoundsSilentlyClamped(t *testing.T) {
	// "key_buffer_size=1 is accepted and ignored, although the value has
	// to be at least 8."
	s := newServer(t)
	if err := startWith(t, s, "[mysqld]\nkey_buffer_size = 1\n"); err != nil {
		t.Fatalf("out-of-bounds value rejected, want silent clamp: %v", err)
	}
	defer s.Stop()
	if got := s.settings.nums["key_buffer_size"]; got != 8 {
		t.Errorf("key_buffer_size = %d, want clamped to 8", got)
	}
}

func TestFindingMultiplierParsingStopsEarly(t *testing.T) {
	// "A value like '1M0' is accepted as valid."
	s := newServer(t)
	if err := startWith(t, s, "[mysqld]\nkey_buffer_size = 1M0\n"); err != nil {
		t.Fatalf("'1M0' rejected, want accepted-as-1M: %v", err)
	}
	defer s.Stop()
	if got := s.settings.nums["key_buffer_size"]; got != 1<<20 {
		t.Errorf("key_buffer_size = %d, want 1M", got)
	}
}

func TestFindingLeadingSuffixSilentlyDefaults(t *testing.T) {
	// "Numeric values that start with one of the mentioned suffixes are
	// silently ignored and defaults are used instead."
	s := newServer(t)
	if err := startWith(t, s, "[mysqld]\nkey_buffer_size = M16\n"); err != nil {
		t.Fatalf("leading-suffix value rejected, want silent default: %v", err)
	}
	defer s.Stop()
	// 0 × 1M = 0, clamped to the minimum 8 — accepted without error.
	if got := s.settings.nums["key_buffer_size"]; got != 8 {
		t.Errorf("key_buffer_size = %d, want min 8", got)
	}
}

func TestFindingValuelessDirectiveAccepted(t *testing.T) {
	// "Directives specified without a value are also accepted and
	// replaced with defaults."
	s := newServer(t)
	if err := startWith(t, s, "[mysqld]\nkey_buffer_size\n"); err != nil {
		t.Fatalf("valueless directive rejected: %v", err)
	}
	defer s.Stop()
	if _, set := s.settings.nums["key_buffer_size"]; set {
		t.Error("valueless directive should leave the default in place")
	}
}

func TestFindingSharedFileLatentErrors(t *testing.T) {
	// Errors in the auxiliary tools' groups are not detected at startup;
	// they surface only when the tool runs (paper §5.2).
	s := newServer(t)
	conf := "[mysqld]\nport = 0\n\n[mysqldump]\nquik\n"
	if err := startWith(t, s, conf); err != nil {
		t.Fatalf("latent error detected at startup: %v", err)
	}
	defer s.Stop()
	if err := s.CheckTool("mysqldump"); err == nil {
		t.Error("tool run should surface the latent typo")
	} else if !strings.Contains(err.Error(), "quik") {
		t.Errorf("tool error = %v", err)
	}
	if err := s.CheckTool("myisamchk"); err != nil {
		t.Errorf("clean group reported error: %v", err)
	}
	if err := s.CheckTool("nosuch"); err == nil {
		t.Error("unknown tool group should error")
	}
}

func TestUnknownSuffixRejected(t *testing.T) {
	// eval_num_suffix: a non-multiplier junk character is an error.
	s := newServer(t)
	err := startWith(t, s, "[mysqld]\nmax_connections = 15x1\n")
	if err == nil {
		s.Stop()
		t.Fatal("junk suffix accepted")
	}
	if !strings.Contains(err.Error(), "unknown suffix") {
		t.Errorf("err = %v", err)
	}
}

func TestEnumValidated(t *testing.T) {
	s := newServer(t)
	err := startWith(t, s, "[mysqld]\nbinlog_format = STATEMEMT\n")
	if err == nil {
		s.Stop()
		t.Fatal("bad enum accepted")
	}
	if err := startWith(t, s, "[mysqld]\nbinlog_format = row\n"); err != nil {
		t.Fatalf("case-insensitive enum value rejected: %v", err)
	}
	s.Stop()
}

func TestBoolValidated(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "[mysqld]\nlow_priority_updates = maybe\n"); err == nil {
		s.Stop()
		t.Fatal("bad bool accepted")
	}
	if err := startWith(t, s, "[mysqld]\nlow_priority_updates = ON\n"); err != nil {
		t.Fatalf("ON rejected: %v", err)
	}
	defer s.Stop()
	if !s.settings.bools["low_priority_updates"] {
		t.Error("bool not applied")
	}
}

func TestStringAcceptedFreeform(t *testing.T) {
	// Non-path string variables accept anything; path variables are
	// validated against the simulated filesystem.
	s := newServer(t)
	if err := startWith(t, s, "[mysqld]\nsocket = /tmp/weird…name!!\n"); err != nil {
		t.Fatalf("odd socket file name rejected: %v", err)
	}
	s.Stop()
}

func TestPathValidation(t *testing.T) {
	s := newServer(t)
	// datadir must exist.
	if err := startWith(t, s, "[mysqld]\ndatadir = /var/lib/mysqlx\n"); err == nil {
		s.Stop()
		t.Fatal("bad datadir accepted")
	} else if !strings.Contains(err.Error(), "Can't change dir") {
		t.Errorf("err = %v", err)
	}
	// socket's directory must exist; file component is free.
	if err := startWith(t, s, "[mysqld]\nsocket = /tmpo/mysql.sock\n"); err == nil {
		s.Stop()
		t.Fatal("socket in missing directory accepted")
	}
	if err := startWith(t, s, "[mysqld]\nsocket = /tmp/other.sock\n"); err != nil {
		t.Fatalf("valid socket rejected: %v", err)
	}
	s.Stop()
	// Relative log_bin names are allowed (they live in datadir).
	if err := startWith(t, s, "[mysqld]\nlog_bin = mysql-bin\n"); err != nil {
		t.Fatalf("relative log_bin rejected: %v", err)
	}
	s.Stop()
}

func TestFlagWithValue(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "[mysqld]\nskip-external-locking = 1\n"); err != nil {
		t.Fatalf("flag with value rejected: %v", err)
	}
	defer s.Stop()
	if !s.settings.flags["skip_external_locking"] {
		t.Error("flag not set")
	}
}

func TestMalformedGroupHeader(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "[mysqld\nport = 1\n"); err == nil {
		s.Stop()
		t.Fatal("malformed group header accepted")
	}
}

func TestOptionBeforeAnyGroup(t *testing.T) {
	s := newServer(t)
	if err := startWith(t, s, "port = 3306\n"); err == nil {
		s.Stop()
		t.Fatal("option before any group accepted")
	}
}

func TestMissingConfigFile(t *testing.T) {
	s := newServer(t)
	if err := s.Start(suts.Files{}); err == nil {
		s.Stop()
		t.Fatal("missing config accepted")
	}
}

func TestPortTypoCaughtByFunctionalTest(t *testing.T) {
	s := newServer(t)
	conf := strings.Replace(string(s.DefaultConfig()[ConfigFile]),
		"port = ", "port = 1", 1) // prepend digit: different port
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
		t.Error("functional test should fail when the port is mutated")
	}
}

func TestMaxConnectionsEnforced(t *testing.T) {
	s := newServer(t)
	conf := string(s.DefaultConfig()[ConfigFile])
	conf = strings.Replace(conf, "max_connections = 151", "max_connections = 1", 1)
	if err := startWith(t, s, conf); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if s.settings.maxConn != 1 {
		t.Fatalf("maxConn = %d", s.settings.maxConn)
	}
}

func TestParseNumTable(t *testing.T) {
	cases := []struct {
		in      string
		min     int64
		max     int64
		want    int64
		clamped bool
		def     bool
		wantErr bool
	}{
		{"3306", 0, 65535, 3306, false, false, false},
		{"16M", 8, 1 << 42, 16 << 20, false, false, false},
		{"1M0", 8, 1 << 42, 1 << 20, false, false, false},
		{"1k", 0, 1 << 42, 1024, false, false, false},
		{"2G", 0, 1 << 42, 2 << 30, false, false, false},
		{"M16", 8, 1 << 42, 8, true, false, false},
		{"1", 8, 1 << 42, 8, true, false, false},
		{"999999", 0, 65535, 65535, true, false, false},
		{"-5", 0, 65535, 0, true, false, false},
		{"", 0, 10, 0, false, true, false},
		{"  ", 0, 10, 0, false, true, false},
		{"33o6", 0, 65535, 0, false, false, true},
		{"x", 0, 65535, 0, false, false, true},
		{"-", 0, 65535, 0, false, false, true},
		{"12kJUNK", 0, 1 << 42, 12 << 10, false, false, false},
	}
	for _, tt := range cases {
		res, err := parseNum(tt.in, tt.min, tt.max)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseNum(%q) succeeded, want error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseNum(%q): %v", tt.in, err)
			continue
		}
		if res.value != tt.want || res.clamped != tt.clamped || res.usedDefault != tt.def {
			t.Errorf("parseNum(%q) = %+v, want value=%d clamped=%v def=%v",
				tt.in, res, tt.want, tt.clamped, tt.def)
		}
	}
}

func TestLookupVar(t *testing.T) {
	if d, _ := lookupVar("port"); d == nil || d.name != "port" {
		t.Error("exact lookup failed")
	}
	if d, amb := lookupVar("max_c"); amb || d == nil || d.name != "max_connections" {
		t.Error("prefix lookup failed")
	}
	if _, amb := lookupVar("max_"); !amb {
		t.Error("ambiguous prefix not flagged")
	}
	if d, amb := lookupVar("zzz"); d != nil || amb {
		t.Error("unknown name should be nil, not ambiguous")
	}
}

func TestStrictModeRejectsSilentAcceptances(t *testing.T) {
	s := newServer(t)
	s.Strict = true
	cases := []string{
		"[mysqld]\nkey_buffer_size = 1\n",   // out of range (clamped when lax)
		"[mysqld]\nkey_buffer_size = 1M0\n", // trailing junk after multiplier
		"[mysqld]\nkey_buffer_size = M16\n", // leading suffix (0, clamped when lax)
		"[mysqld]\nkey_buffer_size\n",       // valueless directive
		"[mysqld]\nkey_buffer_size =\n",     // empty value
	}
	for _, conf := range cases {
		if err := startWith(t, s, conf); err == nil {
			s.Stop()
			t.Errorf("strict mode accepted %q", conf)
		} else if !suts.IsStartupError(err) {
			t.Errorf("err type %T for %q", err, conf)
		}
	}
	// Valid configurations still start.
	if err := s.Start(s.DefaultConfig()); err != nil {
		t.Fatalf("strict mode rejected the default config: %v", err)
	}
	s.Stop()
}
