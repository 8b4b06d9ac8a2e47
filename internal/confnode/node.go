// Package confnode provides the abstract tree representation of
// configuration files used throughout ConfErr.
//
// The original ConfErr models configurations as XML information sets: a
// tree of information items with named properties, some of which point to
// child items. This package is the Go-native equivalent: a Node is an
// ordered tree with a kind, a name, an optional scalar value, a bag of
// string attributes, and an ordered child list. Error-generator plugins
// mutate these trees; format packages parse native files into them and
// serialize them back.
package confnode

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a node in a configuration tree. Different views of the
// same configuration use different kinds: the structural view exposes
// sections and directives, the word view exposes lines and words, the DNS
// record view exposes records and fields.
type Kind int

// Node kinds. Document is always the root of a tree.
const (
	// KindDocument is the root node of a configuration tree; its name is
	// conventionally the logical file name.
	KindDocument Kind = iota + 1
	// KindSection is a named grouping of directives (e.g. "[mysqld]" in an
	// INI file or "<VirtualHost *:80>" in Apache configuration).
	KindSection
	// KindDirective is a single configuration statement, typically a
	// name/value pair.
	KindDirective
	// KindLine is a physical line in the word view.
	KindLine
	// KindWord is a token in the word view; its Value holds the token text.
	KindWord
	// KindRecord is a DNS resource record (or other domain object) in a
	// semantic view.
	KindRecord
	// KindField is a component of a record in a semantic view.
	KindField
	// KindComment preserves comment text so serialization can round-trip.
	KindComment
	// KindBlank preserves blank lines for round-tripping.
	KindBlank
)

var kindNames = map[Kind]string{
	KindDocument:  "document",
	KindSection:   "section",
	KindDirective: "directive",
	KindLine:      "line",
	KindWord:      "word",
	KindRecord:    "record",
	KindField:     "field",
	KindComment:   "comment",
	KindBlank:     "blank",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one item in a configuration tree. The zero value is usable as an
// anonymous node; use New to construct nodes with a kind and name.
//
// Nodes form a tree: each node owns its Children slice and children carry a
// parent pointer maintained by the mutation methods. Do not share a node
// between two trees; use Clone.
type Node struct {
	// Kind classifies the node.
	Kind Kind
	// Name is the node's label: section name, directive key, record type…
	Name string
	// Value is the node's scalar content, when it has one (directive value,
	// word text, field content).
	Value string

	attrs []attrKV
	// attrsShared marks attrs as potentially aliased by other nodes
	// (clones of a frozen tree). Any holder copies the slice before its
	// first mutation, so a shared slice is immutable in practice — what
	// lets the injection hot path clone thousands of nodes per second
	// without copying their attributes. See Freeze.
	attrsShared bool
	// frozen marks a node of a frozen baseline tree (see Freeze), which
	// copy-on-write sets share between experiments and never write: a
	// tracked set copies a frozen node before handing it out (see
	// Set.ResolvePath). Clone and CloneInto never copy the bit. It sits
	// beside attrsShared so both share one word of padding.
	frozen   bool
	children []*Node
	parent   *Node
}

// attrKV is one attribute entry. Nodes carry at most a handful of
// attributes (provenance, token class), so a linear scan over a small
// slice beats a map: no hashing on the injection hot path's
// per-word AttrDefault lookups, and cloning is a plain copy.
type attrKV struct {
	key, value string
}

// New returns a node with the given kind and name.
func New(kind Kind, name string) *Node {
	return &Node{Kind: kind, Name: name}
}

// NewValued returns a node with the given kind, name and scalar value.
func NewValued(kind Kind, name, value string) *Node {
	return &Node{Kind: kind, Name: name, Value: value}
}

// Parent returns the node's parent, or nil for a root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children. The returned slice is owned by the
// node; callers must not mutate it directly. Use Append, InsertAt, Remove.
func (n *Node) Children() []*Node { return n.children }

// NumChildren returns the number of children.
func (n *Node) NumChildren() int { return len(n.children) }

// Child returns the i-th child, or nil when i is out of range.
func (n *Node) Child(i int) *Node {
	if i < 0 || i >= len(n.children) {
		return nil
	}
	return n.children[i]
}

// Index returns the position of the node among its parent's children, or -1
// for a root node.
func (n *Node) Index() int {
	if n.parent == nil {
		return -1
	}
	for i, c := range n.parent.children {
		if c == n {
			return i
		}
	}
	return -1
}

// SetAttr sets a string attribute on the node.
func (n *Node) SetAttr(key, value string) *Node {
	if n.attrsShared {
		n.unshareAttrs()
	}
	for i := range n.attrs {
		if n.attrs[i].key == key {
			n.attrs[i].value = value
			return n
		}
	}
	n.attrs = append(n.attrs, attrKV{key, value})
	return n
}

// unshareAttrs replaces a shared attribute slice with a private copy — the
// write side of the copy-on-write contract established by Freeze.
func (n *Node) unshareAttrs() {
	kvs := make([]attrKV, len(n.attrs))
	copy(kvs, n.attrs)
	n.attrs = kvs
	n.attrsShared = false
}

// Attr returns the attribute value for key, with ok reporting presence.
func (n *Node) Attr(key string) (string, bool) {
	for i := range n.attrs {
		if n.attrs[i].key == key {
			return n.attrs[i].value, true
		}
	}
	return "", false
}

// AttrDefault returns the attribute value for key, or def when absent.
func (n *Node) AttrDefault(key, def string) string {
	for i := range n.attrs {
		if n.attrs[i].key == key {
			return n.attrs[i].value
		}
	}
	return def
}

// DelAttr removes the attribute for key, if present.
func (n *Node) DelAttr(key string) {
	for i := range n.attrs {
		if n.attrs[i].key == key {
			if n.attrsShared {
				n.unshareAttrs()
			}
			n.attrs = append(n.attrs[:i], n.attrs[i+1:]...)
			return
		}
	}
}

// AttrKeys returns the node's attribute keys in sorted order.
func (n *Node) AttrKeys() []string {
	if len(n.attrs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(n.attrs))
	for i := range n.attrs {
		keys = append(keys, n.attrs[i].key)
	}
	sort.Strings(keys)
	return keys
}

// Append adds children to the end of the node's child list and sets their
// parent pointers. It returns the receiver for chaining.
func (n *Node) Append(children ...*Node) *Node {
	for _, c := range children {
		if c == nil {
			continue
		}
		c.detach()
		c.parent = n
		n.children = append(n.children, c)
	}
	return n
}

// InsertAt inserts child at position i among the node's children. Positions
// are clamped to [0, len(children)].
func (n *Node) InsertAt(i int, child *Node) {
	if child == nil {
		return
	}
	child.detach()
	if i < 0 {
		i = 0
	}
	if i > len(n.children) {
		i = len(n.children)
	}
	child.parent = n
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = child
}

// Remove detaches the node from its parent. It is a no-op for roots.
func (n *Node) Remove() {
	n.detach()
}

func (n *Node) detach() {
	p := n.parent
	if p == nil {
		return
	}
	for i, c := range p.children {
		if c == n {
			p.children = append(p.children[:i], p.children[i+1:]...)
			break
		}
	}
	n.parent = nil
}

// Freeze marks the subtree as a frozen baseline. Its attribute lists
// become shared: subsequent clones alias the lists instead of copying
// them, and any holder — the original included — transparently copies
// before its first attribute mutation. Its nodes become shareable: a
// tracked set over a frozen base copies only the nodes on the path to
// the node a scenario writes (Set.ResolvePath) and shares the rest. The
// engine freezes the campaign's baseline sets once, before the workers
// start, so concurrent per-experiment clones never touch the flags again.
func (n *Node) Freeze() {
	if n == nil {
		return
	}
	n.frozen = true
	if n.attrs != nil {
		n.attrsShared = true
	}
	for _, c := range n.children {
		c.Freeze()
	}
}

// Clone returns a deep copy of the subtree rooted at the node. The copy has
// no parent and is not frozen. Attribute lists of frozen nodes are shared
// copy-on-write rather than duplicated (see Freeze).
func (n *Node) Clone() *Node {
	return n.CloneInto(nil)
}

// Equal reports whether two subtrees are structurally identical: same kind,
// name, value, attributes and recursively equal children in order. Parent
// pointers are ignored.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Kind != o.Kind || n.Name != o.Name || n.Value != o.Value {
		return false
	}
	if len(n.attrs) != len(o.attrs) {
		return false
	}
	for i := range n.attrs {
		// SetAttr keeps keys unique, so a per-key lookup is a set compare.
		ov, ok := o.Attr(n.attrs[i].key)
		if !ok || ov != n.attrs[i].value {
			return false
		}
	}
	if len(n.children) != len(o.children) {
		return false
	}
	for i, c := range n.children {
		if !c.Equal(o.children[i]) {
			return false
		}
	}
	return true
}

// Walk visits the subtree rooted at the node in depth-first pre-order. The
// visitor returns false to prune the subtree below the visited node. Walk
// snapshots each child list before descending, so visitors may mutate the
// tree (e.g. remove the visited node).
func (n *Node) Walk(visit func(*Node) bool) {
	if n == nil {
		return
	}
	if !visit(n) {
		return
	}
	snapshot := make([]*Node, len(n.children))
	copy(snapshot, n.children)
	for _, c := range snapshot {
		c.Walk(visit)
	}
}

// ChildByName returns the first direct child with the given name, or nil.
func (n *Node) ChildByName(name string) *Node {
	for _, c := range n.children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenByKind returns the direct children of the given kind, in order.
func (n *Node) ChildrenByKind(kind Kind) []*Node {
	var out []*Node
	for _, c := range n.children {
		if c.Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

// String renders a compact single-line description of the node (not its
// subtree), for diagnostics.
func (n *Node) String() string {
	var b strings.Builder
	b.WriteString(n.Kind.String())
	if n.Name != "" {
		b.WriteString(" name=")
		b.WriteString(n.Name)
	}
	if n.Value != "" {
		b.WriteString(" value=")
		b.WriteString(n.Value)
	}
	for _, k := range n.AttrKeys() {
		v, _ := n.Attr(k)
		fmt.Fprintf(&b, " @%s=%s", k, v)
	}
	return b.String()
}

// Dump renders the subtree as an indented multi-line string, for test
// failure output and debugging.
func (n *Node) Dump() string {
	var b strings.Builder
	n.dump(&b, 0)
	return b.String()
}

func (n *Node) dump(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.String())
	b.WriteByte('\n')
	for _, c := range n.children {
		c.dump(b, depth+1)
	}
}

// CountKind returns the number of nodes of the given kind in the subtree.
func (n *Node) CountKind(kind Kind) int {
	count := 0
	n.Walk(func(m *Node) bool {
		if m.Kind == kind {
			count++
		}
		return true
	})
	return count
}
