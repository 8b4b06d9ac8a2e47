// Package template implements ConfErr's base fault templates (paper §3.3).
//
// A template describes a class of configuration-tree transformations —
// deletion, duplication, move, or content modification of nodes — and is
// parameterized with predicates that select the nodes the transformation
// targets. Instantiating a template against an initial configuration set
// enumerates concrete fault scenarios, each of which can later be
// replayed against a fresh clone of the configuration.
//
// A template's Targets predicate is asked about every node below each
// file's root, file by file in Set.Walk order and in pre-order within a
// file; the nodes it accepts are the template's targets, in that order.
package template

import (
	"fmt"
	"strconv"
	"strings"

	"conferr/internal/confnode"
	"conferr/internal/scenario"
)

// Template generates fault scenarios from an initial configuration set.
type Template interface {
	// Name identifies the template kind for scenario IDs and profiles.
	Name() string
	// GenerateStream enumerates the scenarios this template yields for
	// the given initial configuration, as a lazy pull stream: target
	// selection walks the (small) configuration up front, but the
	// per-target scenario fan-out — the part that grows with the
	// faultload — happens one scenario at a time.
	GenerateStream(set *confnode.Set) scenario.Source
}

// Ref is a stable reference to a node inside a configuration set: the
// logical file name plus the child-index path from the document root.
// Because the engine applies scenarios to clones of the initial set, refs
// (not node pointers) are what scenarios capture.
type Ref struct {
	// File is the logical configuration file name within the set.
	File string
	// Indices is the child-index path from the file's root to the node.
	Indices []int
}

// RefOf computes the Ref of a node that belongs to the tree stored under
// the given file name.
func RefOf(file string, n *confnode.Node) Ref {
	var idx []int
	for cur := n; cur.Parent() != nil; cur = cur.Parent() {
		idx = append(idx, cur.Index())
	}
	for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
		idx[i], idx[j] = idx[j], idx[i]
	}
	return Ref{File: file, Indices: idx}
}

// Resolve returns the node the ref denotes inside the set, or an error
// wrapping scenario.ErrNotApplicable when the path no longer exists.
func (r Ref) Resolve(set *confnode.Set) (*confnode.Node, error) {
	root := set.Get(r.File)
	if root == nil {
		return nil, fmt.Errorf("file %q not in set: %w", r.File, scenario.ErrNotApplicable)
	}
	n := root
	for _, i := range r.Indices {
		n = n.Child(i)
		if n == nil {
			return nil, fmt.Errorf("node %v not found: %w", r, scenario.ErrNotApplicable)
		}
	}
	return n, nil
}

// ResolveOwned is Resolve for a caller that writes only the resolved node
// and its subtree, with Resolve's exact errors. On a tracked set over a
// frozen base it copies just the nodes on the ref's path instead of the
// whole file (see confnode.Set.ResolvePath); everywhere else it is
// Resolve.
func (r Ref) ResolveOwned(set *confnode.Set) (*confnode.Node, error) {
	n, found := set.ResolvePath(r.File, r.Indices)
	if !found {
		return nil, fmt.Errorf("file %q not in set: %w", r.File, scenario.ErrNotApplicable)
	}
	if n == nil {
		return nil, fmt.Errorf("node %v not found: %w", r, scenario.ErrNotApplicable)
	}
	return n, nil
}

// String renders the ref in the form "file#i1.i2...", parseable by
// ParseRef. The '#' separator keeps file names containing dots
// unambiguous.
func (r Ref) String() string {
	b := make([]byte, 0, len(r.File)+1+3*len(r.Indices))
	b = append(b, r.File...)
	b = append(b, '#')
	for k, i := range r.Indices {
		if k > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return string(b)
}

// ParseRef parses the string form produced by Ref.String. It sizes the
// index slice up front and parses each index in place: one allocation per
// ref, which the word view's back-transform pays per folded line.
func ParseRef(s string) (Ref, error) {
	hash := strings.LastIndexByte(s, '#')
	if hash < 0 {
		return Ref{}, fmt.Errorf("template: malformed ref %q", s)
	}
	ref := Ref{File: s[:hash]}
	rest := s[hash+1:]
	if rest == "" {
		return ref, nil
	}
	ref.Indices = make([]int, 0, strings.Count(rest, ".")+1)
	for {
		part := rest
		dot := strings.IndexByte(rest, '.')
		if dot >= 0 {
			part, rest = rest[:dot], rest[dot+1:]
		}
		i, err := strconv.Atoi(part)
		if err != nil || i < 0 {
			return Ref{}, fmt.Errorf("template: malformed ref %q", s)
		}
		ref.Indices = append(ref.Indices, i)
		if dot < 0 {
			break
		}
	}
	return ref, nil
}

// OfKind selects the nodes of kind k.
func OfKind(k confnode.Kind) func(*confnode.Node) bool {
	return func(n *confnode.Node) bool { return n.Kind == k }
}

// targets returns the refs of the nodes match selects, together with the
// nodes themselves (from the original, for descriptions): file by file in
// Set.Walk order, each file's nodes below its root in pre-order.
func targets(set *confnode.Set, match func(*confnode.Node) bool) []refNode {
	var out []refNode
	set.Walk(func(file string, root *confnode.Node) {
		root.Walk(func(n *confnode.Node) bool {
			if n != root && match(n) {
				out = append(out, refNode{ref: RefOf(file, n), node: n})
			}
			return true
		})
	})
	return out
}

type refNode struct {
	ref  Ref
	node *confnode.Node
}

// scenarioID renders the "class/ref/seq" ID of a single-target scenario.
func scenarioID(class string, ref Ref, seq int) string {
	return class + "/" + ref.String() + "/" + strconv.Itoa(seq)
}

// describe renders prefix and then node n, succinctly, into one buffer
// for scenario descriptions.
func describe(prefix string, n *confnode.Node) string {
	b := append(make([]byte, 0, 96), prefix...)
	b = append(b, n.Kind.String()...)
	if n.Name != "" {
		b = append(append(b, ' '), truncate(n.Name)...)
	}
	if n.Value != "" {
		b = append(append(b, '='), truncate(n.Value)...)
	}
	return string(b)
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}

// DeleteTemplate generates one scenario per target node, each deleting that
// node (and its subtree). It models omissions: forgotten directives or
// whole sections (paper §2.2, §4.2).
type DeleteTemplate struct {
	// Targets picks the nodes to delete.
	Targets func(*confnode.Node) bool
	// Class overrides the scenario class; defaults to "delete".
	Class string
}

var _ Template = (*DeleteTemplate)(nil)

// Name implements Template.
func (t *DeleteTemplate) Name() string { return "delete" }

// GenerateStream implements Template.
func (t *DeleteTemplate) GenerateStream(set *confnode.Set) scenario.Source {
	class := t.Class
	if class == "" {
		class = "delete"
	}
	return func(yield func(scenario.Scenario, error) bool) {
		for i, tn := range targets(set, t.Targets) {
			ref := tn.ref
			sc := scenario.Scenario{
				ID:          scenarioID(class, ref, i),
				Class:       class,
				Description: describe("delete ", tn.node),
				Apply: func(s *confnode.Set) error {
					n, err := ref.Resolve(s)
					if err != nil {
						return err
					}
					if n.Parent() == nil {
						return fmt.Errorf("cannot delete root: %w", scenario.ErrNotApplicable)
					}
					n.Remove()
					return nil
				},
			}
			if !yield(sc, nil) {
				return
			}
		}
	}
}

// DuplicateTemplate generates one scenario per target node, each inserting
// a copy of the node immediately after the original. It models mistaken
// repetition of directives, e.g. via copy-paste (paper §2.2).
type DuplicateTemplate struct {
	// Targets picks the nodes to duplicate.
	Targets func(*confnode.Node) bool
	// Class overrides the scenario class; defaults to "duplicate".
	Class string
}

var _ Template = (*DuplicateTemplate)(nil)

// Name implements Template.
func (t *DuplicateTemplate) Name() string { return "duplicate" }

// GenerateStream implements Template.
func (t *DuplicateTemplate) GenerateStream(set *confnode.Set) scenario.Source {
	class := t.Class
	if class == "" {
		class = "duplicate"
	}
	return func(yield func(scenario.Scenario, error) bool) {
		for i, tn := range targets(set, t.Targets) {
			ref := tn.ref
			sc := scenario.Scenario{
				ID:          scenarioID(class, ref, i),
				Class:       class,
				Description: describe("duplicate ", tn.node),
				Apply: func(s *confnode.Set) error {
					n, err := ref.Resolve(s)
					if err != nil {
						return err
					}
					p := n.Parent()
					if p == nil {
						return fmt.Errorf("cannot duplicate root: %w", scenario.ErrNotApplicable)
					}
					p.InsertAt(n.Index()+1, n.Clone())
					return nil
				},
			}
			if !yield(sc, nil) {
				return
			}
		}
	}
}

// MoveTemplate generates one scenario per (target, destination) pair,
// moving the target node to the end of the destination node's children.
// Pairs where the destination already contains the target, equals the
// target, or lies inside the target's subtree are skipped. It models
// misplacement of directives in the wrong section (paper §2.2, §4.2).
type MoveTemplate struct {
	// Targets picks the nodes to move.
	Targets func(*confnode.Node) bool
	// Destinations picks the candidate new parents, in the same order.
	Destinations func(*confnode.Node) bool
	// Class overrides the scenario class; defaults to "move".
	Class string
}

var _ Template = (*MoveTemplate)(nil)

// Name implements Template.
func (t *MoveTemplate) Name() string { return "move" }

// GenerateStream implements Template. The (target × destination) cross
// product — quadratic in the configuration size — is enumerated lazily.
func (t *MoveTemplate) GenerateStream(set *confnode.Set) scenario.Source {
	class := t.Class
	if class == "" {
		class = "move"
	}
	return func(yield func(scenario.Scenario, error) bool) {
		tgts := targets(set, t.Targets)
		dsts := targets(set, t.Destinations)
		seq := 0
		for _, tn := range tgts {
			for _, dn := range dsts {
				if dn.node == tn.node || dn.node == tn.node.Parent() || isInside(dn.node, tn.node) {
					continue
				}
				tref, dref := tn.ref, dn.ref
				sc := scenario.Scenario{
					ID:          fmt.Sprintf("%s/%s->%s/%d", class, tref, dref, seq),
					Class:       class,
					Description: describe("move ", tn.node) + describe(" into ", dn.node),
					Apply: func(s *confnode.Set) error {
						// Resolve the destination first: moving the target
						// changes sibling indices, which would invalidate a
						// destination ref passing through the same parent.
						d, err := dref.Resolve(s)
						if err != nil {
							return err
						}
						n, err := tref.Resolve(s)
						if err != nil {
							return err
						}
						if d == n || isInside(d, n) {
							return fmt.Errorf("destination inside target: %w", scenario.ErrNotApplicable)
						}
						n.Remove()
						d.Append(n)
						return nil
					},
				}
				if !yield(sc, nil) {
					return
				}
				seq++
			}
		}
	}
}

// isInside reports whether n is a strict descendant of root.
func isInside(n, root *confnode.Node) bool {
	for cur := n.Parent(); cur != nil; cur = cur.Parent() {
		if cur == root {
			return true
		}
	}
	return false
}

// Variant is one concrete modification of a node's content produced by a
// Mutator.
type Variant struct {
	// Description says what changed, e.g. `omit 'r' at 2: "pot"`.
	Description string
	// Apply performs the change on the (copied) node. It may mutate only
	// the node and its subtree, never its parent or siblings:
	// ModifyTemplate resolves the node with Ref.ResolveOwned, which on the
	// engine's tracked sets copies just the path down to it and leaves the
	// siblings shared with the campaign's baseline.
	Apply func(n *confnode.Node)
}

// Mutator generates content-modification variants for a node. It is the
// specialization point of the abstract modify template: the spelling-
// mistakes plugin supplies mutators for omission, insertion, substitution,
// case alteration and transposition (paper §4.1).
type Mutator interface {
	// Name identifies the mutation submodel, e.g. "omission".
	Name() string
	// Enumerate returns how many variants the node's content has and a
	// function that renders variant i, 0 <= i < count. Counting is cheap;
	// rendering (the mutated content, the description) is the cost, and
	// callers pay it only for the variants they render.
	Enumerate(n *confnode.Node) (count int, render func(i int) Variant)
}

// Variants renders every variant m enumerates for n, in order; nil when
// there are none.
func Variants(m Mutator, n *confnode.Node) []Variant {
	count, render := m.Enumerate(n)
	if count == 0 {
		return nil
	}
	out := make([]Variant, count)
	for i := range out {
		out[i] = render(i)
	}
	return out
}

// ModifyTemplate is the abstract modify template (paper §3.3): it generates
// one scenario per (target node, mutator variant) pair.
type ModifyTemplate struct {
	// Targets picks the nodes whose content is modified.
	Targets func(*confnode.Node) bool
	// Mutator supplies the content variants.
	Mutator Mutator
	// Class overrides the scenario class; defaults to "modify/<mutator>".
	Class string
}

var _ Template = (*ModifyTemplate)(nil)

// Name implements Template.
func (t *ModifyTemplate) Name() string { return "modify/" + t.Mutator.Name() }

// GenerateStream implements Template: the walk with every position
// built.
func (t *ModifyTemplate) GenerateStream(set *confnode.Set) scenario.Source {
	return t.Walk(set).Source()
}

// Walk enumerates the template's (target × variant) positions in stream
// order. A target's ID prefix and description, and a variant's content,
// description and Apply, are rendered only at the positions the walk
// builds; a skipped position costs a counter step. Variants are
// enumerated one target node at a time, so however large the faultload
// grows, only one node's enumeration is resident.
func (t *ModifyTemplate) Walk(set *confnode.Set) scenario.Walk {
	class := t.Class
	if class == "" {
		class = t.Name()
	}
	return func(pos int, decide func(int) scenario.Step, yield func(scenario.Scenario) bool) (int, bool) {
		start := pos
		for _, tn := range targets(set, t.Targets) {
			count, render := t.Mutator.Enumerate(tn.node)
			ref := tn.ref
			// Everything but the sequence number and the variant is fixed
			// per target: rendered at its first built position, if any.
			var idPrefix, on string
			for i := 0; i < count; i, pos = i+1, pos+1 {
				switch decide(pos) {
				case scenario.Skip:
					continue
				case scenario.Stop:
					return pos, false
				}
				if idPrefix == "" {
					idPrefix = class + "/" + ref.String() + "/"
					on = describe(" on ", tn.node)
				}
				v := render(i)
				apply := v.Apply
				sc := scenario.Scenario{
					ID:          idPrefix + strconv.Itoa(pos-start),
					Class:       class,
					Description: v.Description + on,
					Apply: func(s *confnode.Set) error {
						n, err := ref.ResolveOwned(s)
						if err != nil {
							return err
						}
						apply(n)
						return nil
					},
				}
				if !yield(sc) {
					return pos + 1, false
				}
			}
		}
		return pos, true
	}
}

// UnionTemplate composes templates: its scenarios are the concatenation of
// the component templates' scenarios (paper §3.3 complex templates).
type UnionTemplate struct {
	// Parts are the composed templates, in order.
	Parts []Template
}

var _ Template = (*UnionTemplate)(nil)

// Name implements Template.
func (t *UnionTemplate) Name() string { return "union" }

// GenerateStream implements Template: the parts' streams are chained
// lazily, in order.
func (t *UnionTemplate) GenerateStream(set *confnode.Set) scenario.Source {
	sources := make([]scenario.Source, len(t.Parts))
	for i, p := range t.Parts {
		part := p
		sources[i] = part.GenerateStream(set).MapErr(func(err error) error {
			return fmt.Errorf("union part %s: %w", part.Name(), err)
		})
	}
	return scenario.Concat(sources...)
}
