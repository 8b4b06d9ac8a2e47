// Package cpath implements a small path-query language over confnode
// trees. It plays the role XPath plays in the original ConfErr: error
// templates are parameterized with cpath expressions that select the nodes
// a mutation should target (paper §3.3).
//
// Grammar (informal):
//
//	path  = ["/" | "//"] step { ("/" | "//") step }
//	step  = test { pred }
//	test  = kind [":" name] | "*" [":" name]
//	pred  = "[" int "]"                     positional, 1-based
//	      | "[last()]"                      last among matches
//	      | "[@key]"                        attribute presence
//	      | "[@key='v']" | "[@key!='v']"    attribute comparison
//	      | "[name='v']" | "[name!='v']"    node name comparison
//	      | "[value='v']" | "[value!='v']"  node value comparison
//
// A leading "/" anchors at the root (the query is evaluated against the
// root's children); a leading "//" selects from all descendants. Within a
// path, "/" moves to children and "//" to all descendants of the current
// selection. The kind part matches the node's Kind (by its lower-case
// name); "*" matches any kind. The optional ":name" part matches the
// node's Name exactly ("*" matches any name).
//
// Examples:
//
//	//directive                      every directive in the tree
//	/section:mysqld/directive        directives directly under [mysqld]
//	//directive[@token='value']      directives with a token attribute
//	//section/directive[2]           the 2nd directive of each section
//	//directive[name='Listen']       directives named Listen
package cpath

import (
	"fmt"
	"strconv"
	"strings"

	"conferr/internal/confnode"
)

// Expr is a compiled cpath expression.
type Expr struct {
	src   string
	steps []step
	// rooted is true when the expression began with "/" or "//".
	rooted bool
}

type axis int

const (
	axisChild axis = iota + 1
	axisDescendant
)

type step struct {
	axis  axis
	kind  string // "" or "*" means any kind
	name  string // "" or "*" means any name
	preds []pred
}

type predKind int

const (
	predIndex predKind = iota + 1
	predLast
	predAttrPresent
	predAttrEq
	predAttrNeq
	predNameEq
	predNameNeq
	predValueEq
	predValueNeq
)

type pred struct {
	kind  predKind
	index int
	key   string
	value string
}

// SyntaxError describes a cpath compilation failure.
type SyntaxError struct {
	Expr string
	Pos  int
	Msg  string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("cpath: syntax error in %q at offset %d: %s", e.Expr, e.Pos, e.Msg)
}

// Compile parses a cpath expression.
func Compile(src string) (*Expr, error) {
	p := &parser{src: src}
	e, err := p.parse()
	if err != nil {
		return nil, err
	}
	e.src = src
	return e, nil
}

// MustCompile is like Compile but panics on error. It is intended only for
// package-level expressions whose validity is checked by tests.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// String returns the source of the expression.
func (e *Expr) String() string { return e.src }

// Select evaluates the expression against the tree rooted at root and
// returns the matching nodes in document order (duplicates removed).
func (e *Expr) Select(root *confnode.Node) []*confnode.Node {
	if root == nil || len(e.steps) == 0 {
		return nil
	}
	current := []*confnode.Node{root}
	for _, st := range e.steps {
		current = applyStep(current, st)
		if len(current) == 0 {
			return nil
		}
	}
	return current
}

func applyStep(current []*confnode.Node, st step) []*confnode.Node {
	seen := make(map[*confnode.Node]bool)
	var out []*confnode.Node
	for _, n := range current {
		var candidates []*confnode.Node
		switch st.axis {
		case axisChild:
			candidates = n.Children()
		case axisDescendant:
			n.Walk(func(m *confnode.Node) bool {
				if m != n {
					candidates = append(candidates, m)
				}
				return true
			})
		}
		matched := make([]*confnode.Node, 0, len(candidates))
		for _, c := range candidates {
			if matchTest(c, st) {
				matched = append(matched, c)
			}
		}
		matched = applyPreds(matched, st.preds)
		for _, m := range matched {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	return out
}

func matchTest(n *confnode.Node, st step) bool {
	if st.kind != "" && st.kind != "*" {
		k, ok := confnode.KindFromString(st.kind)
		if !ok || n.Kind != k {
			return false
		}
	}
	if st.name != "" && st.name != "*" && n.Name != st.name {
		return false
	}
	return true
}

func applyPreds(nodes []*confnode.Node, preds []pred) []*confnode.Node {
	for _, p := range preds {
		var kept []*confnode.Node
		for i, n := range nodes {
			if matchPred(n, i, len(nodes), p) {
				kept = append(kept, n)
			}
		}
		nodes = kept
	}
	return nodes
}

func matchPred(n *confnode.Node, i, total int, p pred) bool {
	switch p.kind {
	case predIndex:
		return i+1 == p.index
	case predLast:
		return i == total-1
	case predAttrPresent:
		_, ok := n.Attr(p.key)
		return ok
	case predAttrEq:
		v, ok := n.Attr(p.key)
		return ok && v == p.value
	case predAttrNeq:
		v, ok := n.Attr(p.key)
		return !ok || v != p.value
	case predNameEq:
		return n.Name == p.value
	case predNameNeq:
		return n.Name != p.value
	case predValueEq:
		return n.Value == p.value
	case predValueNeq:
		return n.Value != p.value
	default:
		return false
	}
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Expr: p.src, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) consume(prefix string) bool {
	if strings.HasPrefix(p.src[p.pos:], prefix) {
		p.pos += len(prefix)
		return true
	}
	return false
}

func (p *parser) parse() (*Expr, error) {
	e := &Expr{}
	ax := axisChild
	switch {
	case p.consume("//"):
		e.rooted = true
		ax = axisDescendant
	case p.consume("/"):
		e.rooted = true
	default:
		// Relative expressions select among descendants, which matches how
		// templates use them ("anywhere in the tree").
		ax = axisDescendant
	}
	for {
		st, err := p.parseStep(ax)
		if err != nil {
			return nil, err
		}
		e.steps = append(e.steps, st)
		if p.eof() {
			return e, nil
		}
		switch {
		case p.consume("//"):
			ax = axisDescendant
		case p.consume("/"):
			ax = axisChild
		default:
			return nil, p.errf("expected '/' or '//', got %q", p.src[p.pos:])
		}
	}
}

func (p *parser) parseStep(ax axis) (step, error) {
	st := step{axis: ax}
	kind, err := p.parseIdentOrStar()
	if err != nil {
		return st, err
	}
	st.kind = kind
	if p.consume(":") {
		name, err := p.parseNamePart()
		if err != nil {
			return st, err
		}
		st.name = name
	}
	for p.peek() == '[' {
		pr, err := p.parsePred()
		if err != nil {
			return st, err
		}
		st.preds = append(st.preds, pr)
	}
	return st, nil
}

func identChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.'
}

func (p *parser) parseIdentOrStar() (string, error) {
	if p.consume("*") {
		return "*", nil
	}
	start := p.pos
	for !p.eof() && identChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected node test")
	}
	return p.src[start:p.pos], nil
}

// parseNamePart parses the name component after ':'; it may be an ident, a
// '*', or a quoted string (allowing names with special characters).
func (p *parser) parseNamePart() (string, error) {
	if p.peek() == '\'' || p.peek() == '"' {
		return p.parseQuoted()
	}
	return p.parseIdentOrStar()
}

func (p *parser) parseQuoted() (string, error) {
	quote := p.peek()
	p.pos++
	start := p.pos
	for !p.eof() && p.src[p.pos] != quote {
		p.pos++
	}
	if p.eof() {
		return "", p.errf("unterminated string")
	}
	s := p.src[start:p.pos]
	p.pos++
	return s, nil
}

func (p *parser) parsePred() (pred, error) {
	if !p.consume("[") {
		return pred{}, p.errf("expected '['")
	}
	var pr pred
	switch {
	case p.consume("last()"):
		pr = pred{kind: predLast}
	case p.peek() >= '0' && p.peek() <= '9':
		start := p.pos
		for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		idx, err := strconv.Atoi(p.src[start:p.pos])
		if err != nil || idx < 1 {
			return pred{}, p.errf("bad index %q", p.src[start:p.pos])
		}
		pr = pred{kind: predIndex, index: idx}
	case p.peek() == '@':
		p.pos++
		key, err := p.parseIdentOrStar()
		if err != nil {
			return pred{}, err
		}
		pr = pred{key: key}
		switch {
		case p.consume("!="):
			pr.kind = predAttrNeq
		case p.consume("="):
			pr.kind = predAttrEq
		default:
			pr.kind = predAttrPresent
		}
		if pr.kind != predAttrPresent {
			v, err := p.parseQuotedValue()
			if err != nil {
				return pred{}, err
			}
			pr.value = v
		}
	default:
		field, err := p.parseIdentOrStar()
		if err != nil {
			return pred{}, err
		}
		var neq bool
		switch {
		case p.consume("!="):
			neq = true
		case p.consume("="):
		default:
			return pred{}, p.errf("expected '=' or '!=' after %q", field)
		}
		v, err := p.parseQuotedValue()
		if err != nil {
			return pred{}, err
		}
		switch field {
		case "name":
			pr = pred{value: v, kind: predNameEq}
			if neq {
				pr.kind = predNameNeq
			}
		case "value":
			pr = pred{value: v, kind: predValueEq}
			if neq {
				pr.kind = predValueNeq
			}
		default:
			return pred{}, p.errf("unknown predicate field %q", field)
		}
	}
	if !p.consume("]") {
		return pred{}, p.errf("expected ']'")
	}
	return pr, nil
}

func (p *parser) parseQuotedValue() (string, error) {
	if p.peek() != '\'' && p.peek() != '"' {
		return "", p.errf("expected quoted value")
	}
	return p.parseQuoted()
}
