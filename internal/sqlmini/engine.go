// Package sqlmini implements a miniature SQL database: an in-memory
// engine supporting CREATE DATABASE, CREATE TABLE, USE, INSERT and
// SELECT, plus a line-oriented client/server wire protocol over TCP.
//
// The MySQL and Postgres simulators serve this engine so that ConfErr's
// functional tests are real client/server round trips — the paper's
// diagnosis script "creates a database, then creates a table, populates it,
// and queries it" (§5.1).
package sqlmini

import (
	"fmt"
	"strings"
	"sync"
)

// Engine is an in-memory multi-database SQL engine. It is safe for
// concurrent use. The zero value is ready to use.
type Engine struct {
	mu  sync.Mutex
	dbs map[string]*database
}

type database struct {
	tables map[string]*table
}

type table struct {
	columns []string
	rows    [][]string
}

// Session is a per-connection handle carrying the selected database.
type Session struct {
	eng *Engine
	db  string
}

// NewSession returns a session bound to the engine with no database
// selected.
func (e *Engine) NewSession() *Session {
	return &Session{eng: e}
}

// Result is the outcome of executing one statement.
type Result struct {
	// Columns names the result columns of a SELECT; nil otherwise.
	Columns []string
	// Rows holds SELECT results.
	Rows [][]string
	// Affected is the number of rows affected (INSERT) or matched.
	Affected int
}

// SQLError is a statement-level failure (syntax or semantic).
type SQLError struct {
	// Msg describes the failure.
	Msg string
}

// Error implements the error interface.
func (e *SQLError) Error() string { return e.Msg }

func errf(format string, args ...any) error {
	return &SQLError{Msg: fmt.Sprintf(format, args...)}
}

// Exec parses and executes one SQL statement.
func (s *Session) Exec(stmt string) (*Result, error) {
	toks := tokenize(stmt)
	if len(toks) == 0 {
		return nil, errf("empty statement")
	}
	switch strings.ToUpper(toks[0]) {
	case "CREATE":
		return s.execCreate(toks)
	case "USE":
		if len(toks) != 2 {
			return nil, errf("usage: USE <database>")
		}
		return s.execUse(toks[1])
	case "INSERT":
		return s.execInsert(toks)
	case "SELECT":
		return s.execSelect(toks)
	default:
		return nil, errf("unknown statement %q", toks[0])
	}
}

func (s *Session) execCreate(toks []string) (*Result, error) {
	if len(toks) < 3 {
		return nil, errf("incomplete CREATE")
	}
	switch strings.ToUpper(toks[1]) {
	case "DATABASE":
		name := toks[2]
		s.eng.mu.Lock()
		defer s.eng.mu.Unlock()
		if s.eng.dbs == nil {
			s.eng.dbs = make(map[string]*database)
		}
		if _, exists := s.eng.dbs[name]; exists {
			return nil, errf("database %q already exists", name)
		}
		s.eng.dbs[name] = &database{tables: make(map[string]*table)}
		return &Result{}, nil
	case "TABLE":
		// CREATE TABLE t ( a , b , c )
		name := toks[2]
		cols, err := parseParenList(toks[3:])
		if err != nil {
			return nil, err
		}
		if len(cols) == 0 {
			return nil, errf("table %q needs at least one column", name)
		}
		s.eng.mu.Lock()
		defer s.eng.mu.Unlock()
		db, err := s.currentLocked()
		if err != nil {
			return nil, err
		}
		if _, exists := db.tables[name]; exists {
			return nil, errf("table %q already exists", name)
		}
		db.tables[name] = &table{columns: cols}
		return &Result{}, nil
	default:
		return nil, errf("cannot CREATE %q", toks[1])
	}
}

func (s *Session) execUse(name string) (*Result, error) {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	if _, ok := s.eng.dbs[name]; !ok {
		return nil, errf("database %q does not exist", name)
	}
	s.db = name
	return &Result{}, nil
}

func (s *Session) execInsert(toks []string) (*Result, error) {
	// INSERT INTO t VALUES ( v , v )
	if len(toks) < 4 || !strings.EqualFold(toks[1], "INTO") || !strings.EqualFold(toks[3], "VALUES") {
		return nil, errf("usage: INSERT INTO <table> VALUES (v, ...)")
	}
	name := toks[2]
	vals, err := parseParenList(toks[4:])
	if err != nil {
		return nil, err
	}
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	db, err := s.currentLocked()
	if err != nil {
		return nil, err
	}
	t, ok := db.tables[name]
	if !ok {
		return nil, errf("table %q does not exist", name)
	}
	if len(vals) != len(t.columns) {
		return nil, errf("table %q has %d columns, got %d values", name, len(t.columns), len(vals))
	}
	for i := range vals {
		vals[i] = unquote(vals[i])
	}
	t.rows = append(t.rows, vals)
	return &Result{Affected: 1}, nil
}

func (s *Session) execSelect(toks []string) (*Result, error) {
	// SELECT *|col[,col] FROM t [WHERE col = 'v']
	fromIdx := -1
	for i, tk := range toks {
		if strings.EqualFold(tk, "FROM") {
			fromIdx = i
			break
		}
	}
	if fromIdx < 0 || fromIdx+1 >= len(toks) {
		return nil, errf("usage: SELECT cols FROM <table> [WHERE col = value]")
	}
	colToks := toks[1:fromIdx]
	name := toks[fromIdx+1]

	var whereCol, whereVal string
	rest := toks[fromIdx+2:]
	if len(rest) > 0 {
		if !strings.EqualFold(rest[0], "WHERE") || len(rest) != 4 || rest[2] != "=" {
			return nil, errf("usage: WHERE col = value")
		}
		whereCol, whereVal = rest[1], unquote(rest[3])
	}

	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	db, err := s.currentLocked()
	if err != nil {
		return nil, err
	}
	t, ok := db.tables[name]
	if !ok {
		return nil, errf("table %q does not exist", name)
	}

	// Resolve selected columns.
	var indices []int
	var cols []string
	if len(colToks) == 1 && colToks[0] == "*" {
		cols = append(cols, t.columns...)
		for i := range t.columns {
			indices = append(indices, i)
		}
	} else {
		for _, c := range colToks {
			c = strings.TrimSuffix(c, ",")
			if c == "" || c == "," {
				continue
			}
			idx := indexOf(t.columns, c)
			if idx < 0 {
				return nil, errf("unknown column %q", c)
			}
			indices = append(indices, idx)
			cols = append(cols, c)
		}
		if len(indices) == 0 {
			return nil, errf("no columns selected")
		}
	}

	whereIdx := -1
	if whereCol != "" {
		whereIdx = indexOf(t.columns, whereCol)
		if whereIdx < 0 {
			return nil, errf("unknown column %q", whereCol)
		}
	}

	res := &Result{Columns: cols}
	for _, row := range t.rows {
		if whereIdx >= 0 && row[whereIdx] != whereVal {
			continue
		}
		out := make([]string, len(indices))
		for i, idx := range indices {
			out[i] = row[idx]
		}
		res.Rows = append(res.Rows, out)
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// currentLocked returns the session's selected database. Caller holds the
// engine lock.
func (s *Session) currentLocked() (*database, error) {
	if s.db == "" {
		return nil, errf("no database selected")
	}
	db, ok := s.eng.dbs[s.db]
	if !ok {
		return nil, errf("database %q does not exist", s.db)
	}
	return db, nil
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}

// tokenize splits a statement into tokens: identifiers/values, quoted
// strings (quotes kept), and the punctuation ( ) , = as separate tokens.
func tokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	inQuote := false
	for _, r := range s {
		switch {
		case inQuote:
			cur.WriteRune(r)
			if r == '\'' {
				inQuote = false
				flush()
			}
		case r == '\'':
			flush()
			cur.WriteRune(r)
			inQuote = true
		case r == ' ' || r == '\t' || r == ';':
			flush()
		case r == '(' || r == ')' || r == ',' || r == '=':
			flush()
			toks = append(toks, string(r))
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}

// parseParenList parses "( a , b , c )" from the token stream.
func parseParenList(toks []string) ([]string, error) {
	if len(toks) == 0 || toks[0] != "(" {
		return nil, errf("expected '('")
	}
	var out []string
	expectItem := true
	for _, tk := range toks[1:] {
		switch tk {
		case ")":
			if expectItem && len(out) > 0 {
				return nil, errf("trailing comma")
			}
			return out, nil
		case ",":
			if expectItem {
				return nil, errf("unexpected comma")
			}
			expectItem = true
		default:
			if !expectItem {
				return nil, errf("expected ',' before %q", tk)
			}
			out = append(out, tk)
			expectItem = false
		}
	}
	return nil, errf("missing ')'")
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return s[1 : len(s)-1]
	}
	return s
}
