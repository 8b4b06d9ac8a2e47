package sqlmini

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"conferr/internal/suts"
)

// lo is the kernel loopback transport the server tests run on.
var lo suts.LoopbackTransport

func exec(t *testing.T, s *Session, stmt string) *Result {
	t.Helper()
	res, err := s.Exec(stmt)
	if err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
	return res
}

func execErr(t *testing.T, s *Session, stmt, wantSub string) {
	t.Helper()
	_, err := s.Exec(stmt)
	if err == nil {
		t.Fatalf("Exec(%q) succeeded, want error containing %q", stmt, wantSub)
	}
	var se *SQLError
	if !errors.As(err, &se) {
		t.Fatalf("Exec(%q) error type %T", stmt, err)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("Exec(%q) error %q, want contains %q", stmt, err, wantSub)
	}
}

func TestEngineBasicFlow(t *testing.T) {
	var e Engine
	s := e.NewSession()
	exec(t, s, "CREATE DATABASE testdb")
	exec(t, s, "USE testdb")
	exec(t, s, "CREATE TABLE users (id, name)")
	if res := exec(t, s, "INSERT INTO users VALUES (1, 'alice')"); res.Affected != 1 {
		t.Errorf("affected = %d", res.Affected)
	}
	exec(t, s, "INSERT INTO users VALUES (2, 'bob')")
	res := exec(t, s, "SELECT * FROM users")
	if !reflect.DeepEqual(res.Columns, []string{"id", "name"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 2 || res.Rows[0][1] != "alice" {
		t.Errorf("rows = %v", res.Rows)
	}
	res = exec(t, s, "SELECT name FROM users WHERE id = 2")
	if len(res.Rows) != 1 || res.Rows[0][0] != "bob" {
		t.Errorf("filtered rows = %v", res.Rows)
	}
	res = exec(t, s, "SELECT name FROM users WHERE name = 'alice'")
	if len(res.Rows) != 1 || res.Rows[0][0] != "alice" {
		t.Errorf("quoted filter rows = %v", res.Rows)
	}
}

func TestEngineErrors(t *testing.T) {
	var e Engine
	s := e.NewSession()
	execErr(t, s, "", "empty")
	execErr(t, s, "FROBNICATE all", "unknown statement")
	execErr(t, s, "USE nope", "does not exist")
	execErr(t, s, "CREATE TABLE t (a)", "no database selected")
	exec(t, s, "CREATE DATABASE d")
	execErr(t, s, "CREATE DATABASE d", "already exists")
	exec(t, s, "USE d")
	execErr(t, s, "CREATE TABLE t ()", "at least one column")
	exec(t, s, "CREATE TABLE t (a, b)")
	execErr(t, s, "CREATE TABLE t (a)", "already exists")
	execErr(t, s, "INSERT INTO t VALUES (1)", "2 columns, got 1")
	execErr(t, s, "INSERT INTO missing VALUES (1)", "does not exist")
	execErr(t, s, "SELECT * FROM missing", "does not exist")
	execErr(t, s, "SELECT nope FROM t", "unknown column")
	execErr(t, s, "SELECT * FROM t WHERE nope = 1", "unknown column")
	execErr(t, s, "SELECT * FROM t WHERE a", "WHERE")
	execErr(t, s, "SELECT *", "FROM")
	execErr(t, s, "INSERT t", "usage")
	execErr(t, s, "CREATE TABLE x (a,)", "trailing comma")
	execErr(t, s, "CREATE TABLE x (a b)", "expected ','")
	execErr(t, s, "CREATE TABLE x (,a)", "unexpected comma")
	execErr(t, s, "CREATE TABLE x (a", "missing ')'")
	execErr(t, s, "CREATE TABLE x a)", "expected '('")
	execErr(t, s, "CREATE VIEW v", "cannot CREATE")
	execErr(t, s, "DROP TABLE t", "unknown statement")
}

func TestQuotedValuesWithSpaces(t *testing.T) {
	var e Engine
	s := e.NewSession()
	exec(t, s, "CREATE DATABASE d")
	exec(t, s, "USE d")
	exec(t, s, "CREATE TABLE t (msg)")
	exec(t, s, "INSERT INTO t VALUES ('hello world, friend')")
	res := exec(t, s, "SELECT * FROM t")
	if res.Rows[0][0] != "hello world, friend" {
		t.Errorf("value = %q", res.Rows[0][0])
	}
}

func TestSessionsIsolatedSelection(t *testing.T) {
	var e Engine
	s1, s2 := e.NewSession(), e.NewSession()
	exec(t, s1, "CREATE DATABASE d1")
	exec(t, s1, "USE d1")
	exec(t, s1, "CREATE TABLE t (a)")
	exec(t, s1, "INSERT INTO t VALUES (1)")
	// s2 has no selection even though s1 does.
	execErr(t, s2, "SELECT * FROM t", "no database selected")
	// Data is shared.
	exec(t, s2, "USE d1")
	res := exec(t, s2, "SELECT * FROM t")
	if len(res.Rows) != 1 {
		t.Errorf("shared rows = %v", res.Rows)
	}
}

func TestEngineConcurrentAccess(t *testing.T) {
	var e Engine
	setup := e.NewSession()
	exec(t, setup, "CREATE DATABASE d")
	exec(t, setup, "USE d")
	exec(t, setup, "CREATE TABLE t (n)")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := e.NewSession()
			if _, err := s.Exec("USE d"); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 50; j++ {
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i*100+j)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	res := exec(t, setup, "SELECT * FROM t")
	if len(res.Rows) != 400 {
		t.Errorf("rows = %d, want 400", len(res.Rows))
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	var e Engine
	srv := NewServer(&e)
	if err := srv.Listen(lo.Listen, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	c, err := Dial(lo.Dial, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustExec := func(stmt string) ([][]string, int) {
		t.Helper()
		rows, n, err := c.Exec(stmt)
		if err != nil {
			t.Fatalf("Exec(%q): %v", stmt, err)
		}
		return rows, n
	}
	mustExec("CREATE DATABASE d")
	mustExec("USE d")
	mustExec("CREATE TABLE t (id, name)")
	if _, n := mustExec("INSERT INTO t VALUES (1, 'x')"); n != 1 {
		t.Errorf("affected = %d", n)
	}
	rows, n := mustExec("SELECT * FROM t")
	if n != 1 || len(rows) != 1 || rows[0][0] != "1" || rows[0][1] != "x" {
		t.Errorf("rows = %v, n = %d", rows, n)
	}
	// Server-side error surfaces as ErrServer.
	if _, _, err := c.Exec("SELECT * FROM nope"); !errors.Is(err, ErrServer) {
		t.Errorf("err = %v", err)
	}
	// QUIT is polite shutdown.
	if _, _, err := c.Exec("QUIT"); err != nil {
		t.Errorf("QUIT: %v", err)
	}
}

func TestServerMaxConns(t *testing.T) {
	var e Engine
	srv := NewServer(&e)
	srv.MaxConns = 1
	if err := srv.Listen(lo.Listen, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := Dial(lo.Dial, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// First client must be active for the limit to bind.
	if _, _, err := c1.Exec("CREATE DATABASE d"); err != nil {
		t.Fatal(err)
	}

	c2, err := Dial(lo.Dial, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, _, err = c2.Exec("USE d")
	if err == nil || !strings.Contains(err.Error(), "too many connections") {
		t.Errorf("second connection err = %v", err)
	}
}

func TestServerAddrBeforeListen(t *testing.T) {
	srv := NewServer(&Engine{})
	if srv.Addr() != "" {
		t.Error("Addr before Listen should be empty")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close without Listen: %v", err)
	}
}

func TestListenError(t *testing.T) {
	srv := NewServer(&Engine{})
	if err := srv.Listen(lo.Listen, "256.256.256.256:1"); err == nil {
		srv.Close()
		t.Error("expected listen error")
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"SELECT * FROM t", []string{"SELECT", "*", "FROM", "t"}},
		{"a=(1,'x y')", []string{"a", "=", "(", "1", ",", "'x y'", ")"}},
		{"  spaced   out ;", []string{"spaced", "out"}},
		{"", nil},
	}
	for _, tt := range cases {
		if got := tokenize(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}
