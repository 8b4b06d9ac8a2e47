// Package formats defines the contract between ConfErr and the
// system-specific configuration file formats: parsing a native file into
// the system representation (a confnode tree) and serializing a — possibly
// mutated — tree back into the native format (paper §3.2).
//
// Subpackages implement the concrete formats: ini (MySQL-style), kv
// (Postgres-style), apacheconf (Apache httpd), nginxconf (nginx), and
// zonefile and tinydns (DNS).
package formats

import (
	"bytes"
	"fmt"

	"conferr/internal/confnode"
)

// Format parses and serializes one configuration file format.
//
// Parse must produce a tree that Serialize maps back to byte-identical
// output for unmutated input (round-trip fidelity), so that injected
// faults are the only difference between the original and the mutated
// configuration files.
type Format interface {
	// Name identifies the format, e.g. "ini".
	Name() string
	// Parse converts native file content into the system representation.
	// file is the logical name, used for error messages and the document
	// node name.
	Parse(file string, data []byte) (*confnode.Node, error)
	// Serialize converts a system-representation tree back to native file
	// content.
	Serialize(root *confnode.Node) ([]byte, error)
}

// BufferedFormat is an optional Format extension for serialization hot
// paths: SerializeTo appends the native file content to buf instead of
// allocating a fresh buffer per call, letting the engine reuse one
// per-worker buffer across thousands of injections. Implementations must
// produce exactly the bytes Serialize would.
type BufferedFormat interface {
	Format
	SerializeTo(buf *bytes.Buffer, root *confnode.Node) error
}

// Span locates one node's rendering in serialized file content: the
// bytes [Start, End), rendered at nesting depth Depth.
type Span struct {
	Start, End, Depth int
}

// Spans maps the nodes of one serialized tree to their Span.
type Spans map[*confnode.Node]Span

// SpliceFormat is an optional BufferedFormat extension for formats that
// render every node from the node itself and its depth alone. It lets a
// mutated copy of a tree be serialized by copying, byte for byte, the
// rendering of every node it still shares with the tree's own
// serialization, so only the nodes a mutation copied are rendered again.
//
// Spans are keyed by node identity, so they are only sound while the
// recorded tree is immutable — a frozen baseline (confnode.Node.Freeze)
// that copy-on-write sets share but never write.
type SpliceFormat interface {
	BufferedFormat
	// SerializeSpans is SerializeTo that also records, in spans, the
	// span of every node it renders below root, relative to the first
	// byte it appends.
	SerializeSpans(buf *bytes.Buffer, root *confnode.Node, spans Spans) error
	// SpliceTo appends exactly what SerializeTo would for root, copying
	// base[Start:End] for every node found in spans at its own depth
	// instead of rendering it. base and spans are one SerializeSpans
	// call's output.
	SpliceTo(buf *bytes.Buffer, root *confnode.Node, base []byte, spans Spans) error
}

// ParseError describes a configuration file parse failure.
type ParseError struct {
	// File is the logical file name.
	File string
	// Line is the 1-based line number of the failure.
	Line int
	// Msg describes the problem.
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Attribute keys used by the format packages to preserve the lexical
// details needed for byte-identical round trips.
const (
	// AttrSep preserves the separator between a directive name and its
	// value, including surrounding whitespace (e.g. " = ", "=", " ").
	AttrSep = "sep"
	// AttrIndent preserves leading whitespace of the line.
	AttrIndent = "indent"
	// AttrTrailing preserves a trailing comment on the directive's line.
	AttrTrailing = "trailing"
	// AttrArg preserves a section's argument text (e.g. Apache
	// "<VirtualHost *:80>" has arg "*:80").
	AttrArg = "arg"
)

// DefaultSep is the separator used when serializing directives created by
// mutations (which carry no AttrSep).
const DefaultSep = " = "
