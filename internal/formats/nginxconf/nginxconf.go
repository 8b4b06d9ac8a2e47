// Package nginxconf parses and serializes nginx-style configuration
// files: semicolon-terminated directives ("worker_processes 4;"), '#'
// comments, and brace-delimited block directives ("http { … }") that nest
// to arbitrary depth — the first format in the matrix whose sections are
// recursive by design rather than by exception (Apache's containers nest,
// but stock httpd.conf stays two levels deep; every real nginx.conf is at
// least http > server > location).
//
// Blocks become KindSection nodes whose Name is the block directive
// ("location") and whose AttrArg holds the argument text ("/static/");
// simple directives become KindDirective nodes. Lexical details — leading
// whitespace, name/value separators, trailing comments — are preserved in
// attributes so unmutated input round-trips byte-identically.
package nginxconf

import (
	"bytes"
	"strings"

	"conferr/internal/confnode"
	"conferr/internal/formats"
)

// MaxDepth bounds block nesting; deeper input is rejected rather than
// parsed into a tree whose recursive serialization could exhaust the
// stack.
const MaxDepth = 128

// Attribute keys for the lexical details of a block's two brace lines.
// formats.AttrIndent / formats.AttrTrailing describe the opening line;
// these describe the closing one, so "} # end http" markers and
// hand-indented close braces survive the round trip byte-identically.
const (
	// AttrCloseIndent preserves the leading whitespace of the closing
	// brace's line.
	AttrCloseIndent = "close-indent"
	// AttrCloseTrailing preserves a trailing comment after the closing
	// brace.
	AttrCloseTrailing = "close-trailing"
)

// Format implements formats.Format for nginx configuration files.
type Format struct{}

var _ formats.SpliceFormat = Format{}

// Name implements formats.Format.
func (Format) Name() string { return "nginxconf" }

// Parse implements formats.Format. The parser is line-oriented, which
// covers the universal one-directive-per-line layout of real nginx
// configurations; a non-comment line must end in ';' (directive), '{'
// (block open) or be a lone '}' (block close).
func (Format) Parse(file string, data []byte) (*confnode.Node, error) {
	doc := confnode.New(confnode.KindDocument, file)
	stack := []*confnode.Node{doc}
	for i, line := range splitLines(data) {
		top := stack[len(stack)-1]
		indent := leadingWS(line)
		rest := line[len(indent):]
		body, trailing := splitTrailing(rest)
		trimmed := strings.TrimRight(body, " \t")
		switch {
		case trimmed == "" && trailing == "":
			top.Append(confnode.New(confnode.KindBlank, ""))
		case trimmed == "":
			// Only a comment is left once the (empty) code part is gone:
			// the line is a whole-line comment, preserved verbatim.
			top.Append(confnode.NewValued(confnode.KindComment, "", line))
		case trimmed == "}":
			if len(stack) == 1 {
				return nil, &formats.ParseError{File: file, Line: i + 1, Msg: `unexpected "}"`}
			}
			sec := stack[len(stack)-1]
			sec.SetAttr(AttrCloseIndent, indent)
			if trailing != "" {
				sec.SetAttr(AttrCloseTrailing, trailing)
			}
			stack = stack[:len(stack)-1]
		case strings.HasSuffix(trimmed, "{"):
			if len(stack) > MaxDepth {
				return nil, &formats.ParseError{File: file, Line: i + 1, Msg: "blocks nested too deeply"}
			}
			inner := strings.TrimRight(trimmed[:len(trimmed)-1], " \t")
			name, arg := splitFirstWord(inner)
			if name == "" {
				return nil, &formats.ParseError{File: file, Line: i + 1, Msg: "block without a directive name"}
			}
			sec := confnode.New(confnode.KindSection, name)
			if arg != "" {
				sec.SetAttr(formats.AttrArg, arg)
			}
			// Always record the indent (even empty) so serialization
			// distinguishes parsed nodes from mutation-created ones, which
			// get depth-based default indentation.
			sec.SetAttr(formats.AttrIndent, indent)
			if trailing != "" {
				sec.SetAttr(formats.AttrTrailing, trailing)
			}
			top.Append(sec)
			stack = append(stack, sec)
		case strings.HasSuffix(trimmed, ";"):
			d := parseDirective(indent, trimmed)
			if trailing != "" {
				d.SetAttr(formats.AttrTrailing, trailing)
			}
			top.Append(d)
		default:
			name, _ := splitFirstWord(strings.TrimSpace(rest))
			return nil, &formats.ParseError{File: file, Line: i + 1,
				Msg: `directive "` + name + `" is not terminated by ";"`}
		}
	}
	if len(stack) != 1 {
		return nil, &formats.ParseError{File: file, Line: 0,
			Msg: `unexpected end of file, expecting "}" (unclosed block "` + stack[len(stack)-1].Name + `")`}
	}
	return doc, nil
}

// parseDirective parses "name args…;" (trimmed already ends in ';').
func parseDirective(indent, trimmed string) *confnode.Node {
	body := strings.TrimRight(trimmed[:len(trimmed)-1], " \t")
	name, rest := splitFirstWord(body)
	d := confnode.NewValued(confnode.KindDirective, name, rest)
	if rest != "" {
		d.SetAttr(formats.AttrSep, body[len(name):len(body)-len(rest)])
	} else {
		d.SetAttr(formats.AttrSep, "")
	}
	d.SetAttr(formats.AttrIndent, indent)
	return d
}

// splitTrailing separates a trailing '#' comment from the code part of a
// line. Only a '#' after the directive's terminating ';' (or a lone '}')
// starts a comment; a '#' inside the argument text is value content, as
// in nginx's own lexer a bare '#' mid-token does not open a comment for
// our purposes (values are raw text here). The returned trailing part
// includes the '#' and any whitespace immediately before it.
func splitTrailing(s string) (body, trailing string) {
	for i := 0; i < len(s); i++ {
		if s[i] != '#' {
			continue
		}
		code := strings.TrimRight(s[:i], " \t")
		if code == "" || code == "}" || strings.HasSuffix(code, ";") || strings.HasSuffix(code, "{") {
			start := i
			for start > 0 && (s[start-1] == ' ' || s[start-1] == '\t') {
				start--
			}
			return s[:start], s[start:]
		}
	}
	return s, ""
}

// splitFirstWord splits "name args…" at the first whitespace run.
func splitFirstWord(s string) (first, rest string) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimLeft(s[i:], " \t")
}

// Serialize implements formats.Format.
func (Format) Serialize(root *confnode.Node) ([]byte, error) {
	var b bytes.Buffer
	if err := (Format{}).SerializeTo(&b, root); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// SerializeTo implements formats.BufferedFormat.
func (Format) SerializeTo(b *bytes.Buffer, root *confnode.Node) error {
	writeItems(b, root.Children(), 0, nil)
	return nil
}

// SerializeSpans implements formats.SpliceFormat.
func (Format) SerializeSpans(b *bytes.Buffer, root *confnode.Node, spans formats.Spans) error {
	writeItems(b, root.Children(), 0, &spanState{spans: spans, origin: b.Len()})
	return nil
}

// SpliceTo implements formats.SpliceFormat. A node renders from its own
// fields and its depth alone — a node without AttrIndent is indented by
// depth — so a recorded node found at its recorded depth renders to its
// recorded bytes.
func (Format) SpliceTo(b *bytes.Buffer, root *confnode.Node, base []byte, spans formats.Spans) error {
	writeItems(b, root.Children(), 0, &spanState{spans: spans, base: base})
	return nil
}

// spanState is writeItems' span bookkeeping. Without base it records
// the span of every node rendered, relative to origin; with base it
// copies the recorded span of every node found at its recorded depth.
type spanState struct {
	spans  formats.Spans
	base   []byte
	origin int
}

// writeItems renders items at the given depth. sp is nil for a plain
// serialization (see spanState).
func writeItems(b *bytes.Buffer, items []*confnode.Node, depth int, sp *spanState) {
	for _, n := range items {
		if sp != nil && sp.base != nil {
			if s, ok := sp.spans[n]; ok && s.Depth == depth {
				b.Write(sp.base[s.Start:s.End])
				continue
			}
		}
		start := b.Len()
		switch n.Kind {
		case confnode.KindBlank:
			b.WriteByte('\n')
		case confnode.KindComment:
			b.WriteString(n.Value)
			b.WriteByte('\n')
		case confnode.KindSection:
			indent := indentOf(n, depth)
			b.WriteString(indent)
			b.WriteString(n.Name)
			if arg, ok := n.Attr(formats.AttrArg); ok && arg != "" {
				b.WriteByte(' ')
				b.WriteString(arg)
			}
			b.WriteString(" {")
			b.WriteString(n.AttrDefault(formats.AttrTrailing, ""))
			b.WriteByte('\n')
			writeItems(b, n.Children(), depth+1, sp)
			b.WriteString(n.AttrDefault(AttrCloseIndent, indent))
			b.WriteByte('}')
			b.WriteString(n.AttrDefault(AttrCloseTrailing, ""))
			b.WriteByte('\n')
		case confnode.KindDirective:
			b.WriteString(indentOf(n, depth))
			b.WriteString(n.Name)
			if n.Value != "" {
				sep := n.AttrDefault(formats.AttrSep, " ")
				if sep == "" {
					sep = " "
				}
				b.WriteString(sep)
				b.WriteString(n.Value)
			}
			b.WriteByte(';')
			b.WriteString(n.AttrDefault(formats.AttrTrailing, ""))
			b.WriteByte('\n')
		default:
			b.WriteString(n.Value)
			b.WriteByte('\n')
		}
		if sp != nil && sp.base == nil {
			sp.spans[n] = formats.Span{Start: start - sp.origin, End: b.Len() - sp.origin, Depth: depth}
		}
	}
}

// indentOf is a node's AttrIndent, or four spaces per depth level when it
// has none (a node a mutation created).
func indentOf(n *confnode.Node, depth int) string {
	if indent, ok := n.Attr(formats.AttrIndent); ok {
		return indent
	}
	return strings.Repeat("    ", depth)
}

func leadingWS(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] != ' ' && s[i] != '\t' {
			return s[:i]
		}
	}
	return s
}

func splitLines(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	s := strings.TrimSuffix(string(data), "\n")
	if s == "" {
		return []string{""}
	}
	return strings.Split(s, "\n")
}
