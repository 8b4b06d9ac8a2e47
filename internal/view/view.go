// Package view implements bidirectional transformations between the
// system-specific representation of a configuration and the plugin-specific
// representations error generators operate on (paper §3.2).
//
// The original ConfErr performs this mapping with XSLT and records
// auxiliary information so the mutated plugin view can be mapped back to
// the system representation; mapping back can fail when the mutated state
// is not expressible in the system's configuration language, which is a
// first-class outcome (paper §5.4). Here the same roles are played by the
// View interface, provenance attributes, and ErrNotExpressible.
package view

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"conferr/internal/confnode"
	"conferr/internal/template"
)

// ErrNotExpressible is returned by Backward when the mutated plugin-view
// state cannot be expressed in the system-specific configuration language
// (e.g. a fault that deletes one half of a record pair that the target
// format can only write as a single combined directive).
var ErrNotExpressible = errors.New("mutated configuration not expressible in system format")

// View maps between the system-specific configuration representation and a
// plugin-specific one.
type View interface {
	// Name identifies the view, e.g. "word" or "struct".
	Name() string
	// Forward derives the plugin-specific representation from the system
	// one. The input must not be mutated.
	Forward(sys *confnode.Set) (*confnode.Set, error)
	// Backward folds a (possibly mutated) plugin-view set back onto the
	// original system set, returning a new system set. It returns an error
	// wrapping ErrNotExpressible when the view state has no system-format
	// equivalent. sys must not be mutated; the engine owns mutated, and
	// Backward should treat it as read-only too (clone before any
	// in-place folding, as the built-in views do).
	Backward(mutated, sys *confnode.Set) (*confnode.Set, error)
}

// Incremental extends a View with the back-transform of the engine's
// injection pipeline. IncrementalBackward is Backward restricted to the
// files a scenario dirtied: implementations build the result as
// sys.TrackedInto(nil, nil) and fold only the dirty view files onto it,
// so untouched files share the baseline trees and the returned (tracked)
// set reports exactly the system files the back-transform rewrote. The
// engine serializes those and reuses cached baseline bytes for the rest.
// It runs through IncrementalInto; a campaign whose view lacks that
// fails at start.
//
// Contract notes:
//   - dirty lists the mutated view files in set order; mutated is sealed
//     (reads are safe, clean files share baseline trees, and a file a
//     scenario wrote through Ref.ResolveOwned shares every node off the
//     written path; mutated.BaseTree gives the unmutated tree to compare
//     against).
//   - sys is the fold base. The engine passes the frozen round trip of
//     the unmutated view (Backward over it), so folding an unchanged view
//     node onto sys writes nothing and may be skipped. Write into sys's
//     tracked wrapper through Ref.ResolveOwned or Set.Get, never into a
//     tree read without one.
//   - The result may adopt mutated's dirty trees without cloning; callers
//     must not reuse mutated afterwards.
//   - Errors must match what Backward would return for the same mutation,
//     so the engine and the tests' reference pipeline stay record-for-
//     record identical.
//   - A view that embeds an Incremental implementation but overrides
//     Backward MUST also override (or shadow) IncrementalBackward:
//     inheriting one without the other desynchronizes the two paths.
type Incremental interface {
	View
	IncrementalBackward(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error)
}

// IncrementalInto refines Incremental for views whose incremental
// back-transform can rebuild a caller-owned tracked wrapper instead of
// allocating one per experiment. The engine requires it of every
// campaign's view. dst is the wrapper to reuse
// (nil allocates a fresh one, making the call equivalent to
// IncrementalBackward); it must not be in use — the engine threads one per
// worker through consecutive experiments, the same ownership discipline as
// confnode.Set.TrackedInto. The returned set is dst (or the fresh
// wrapper) and everything else of the Incremental contract applies
// unchanged.
type IncrementalInto interface {
	Incremental
	IncrementalBackwardInto(dst *confnode.Set, dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error)
}

// SrcAttr is the provenance attribute linking a view node to the system
// node it was derived from; its value is a template.Ref string produced by
// refString.
const SrcAttr = "src"

// TokenAttr classifies word-view tokens ("name" or "value"), letting the
// spelling plugin restrict injection to a part of the configuration (paper
// §4.1).
const TokenAttr = "token"

// Token classes for word-view nodes.
const (
	// TokenName marks a word holding a directive name.
	TokenName = "name"
	// TokenValue marks a word holding (part of) a directive value.
	TokenValue = "value"
)

// StructView exposes the system representation directly: sections and
// directives. Forward clones; Backward returns the mutated tree as-is.
// This is the view used by the structural-errors plugin — the paper notes
// the transformation is usually very simple; here it is the identity.
type StructView struct{}

var _ IncrementalInto = StructView{}

// Name implements View.
func (StructView) Name() string { return "struct" }

// Forward implements View.
func (StructView) Forward(sys *confnode.Set) (*confnode.Set, error) {
	return sys.Clone(), nil
}

// Backward implements View.
func (StructView) Backward(mutated, _ *confnode.Set) (*confnode.Set, error) {
	return mutated.Clone(), nil
}

// IncrementalBackward implements Incremental: the identity transform only
// has to adopt the dirty view trees; clean files keep sharing the system
// baseline.
func (v StructView) IncrementalBackward(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	return v.IncrementalBackwardInto(nil, dirty, mutated, sys)
}

// IncrementalBackwardInto implements IncrementalInto.
func (StructView) IncrementalBackwardInto(dst *confnode.Set, dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	out := sys.TrackedInto(dst, mutated.Arena())
	for _, file := range dirty {
		out.Put(file, mutated.Get(file))
	}
	return out, nil
}

// WordView represents every directive as a line of typed word tokens: the
// directive name (token class "name") followed by the whitespace-separated
// words of its value (token class "value"). It is the representation used
// for typo injection (paper Figure 2.c).
//
// Section names are not exposed: the paper's spelling plugin targets
// directive names and values (§5.2).
type WordView struct{}

var _ IncrementalInto = WordView{}

// Name implements View.
func (WordView) Name() string { return "word" }

// Forward implements View.
func (WordView) Forward(sys *confnode.Set) (*confnode.Set, error) {
	out := confnode.NewSet()
	sys.Walk(func(file string, root *confnode.Node) {
		doc := confnode.New(confnode.KindDocument, file)
		root.Walk(func(n *confnode.Node) bool {
			if n.Kind != confnode.KindDirective {
				return true
			}
			line := confnode.New(confnode.KindLine, "")
			line.SetAttr(SrcAttr, template.RefOf(file, n).String())
			name := confnode.NewValued(confnode.KindWord, "", n.Name)
			name.SetAttr(TokenAttr, TokenName)
			line.Append(name)
			for _, w := range strings.Fields(n.Value) {
				word := confnode.NewValued(confnode.KindWord, "", w)
				word.SetAttr(TokenAttr, TokenValue)
				line.Append(word)
			}
			doc.Append(line)
			return true
		})
		out.Put(file, doc)
	})
	return out, nil
}

// Backward implements View. Each line is folded back onto the system
// directive it came from: the name token becomes the directive name and
// the value tokens are re-joined with single spaces. A line whose
// provenance no longer resolves yields an error.
func (WordView) Backward(mutated, sys *confnode.Set) (*confnode.Set, error) {
	out := sys.Clone()
	buf := foldBufPool.Get().(*[]byte)
	defer foldBufPool.Put(buf)
	var retErr error
	mutated.Walk(func(file string, root *confnode.Node) {
		if retErr != nil {
			return
		}
		retErr = foldLines(out, root, nil, buf)
	})
	if retErr != nil {
		return nil, retErr
	}
	return out, nil
}

// IncrementalBackward implements Incremental: only the dirty files' lines
// are folded back, and of those only the lines the scenario changed (see
// IncrementalBackwardInto).
func (v WordView) IncrementalBackward(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	return v.IncrementalBackwardInto(nil, dirty, mutated, sys)
}

// IncrementalBackwardInto implements IncrementalInto. Each dirty view file
// is walked in lockstep with its base tree (mutated.BaseTree). A line
// still pointer-equal to its base line is clean and skipped. The other
// lines are folded one by one, each through Ref.ResolveOwned, which copies
// only the path to its system directive — provided the file kept its line
// count and each such line its kind and provenance. Skipping a clean line
// is exact only when folding it onto sys writes nothing, i.e. when sys is
// the round trip of the unmutated view; the engine passes exactly that
// set.
//
// A file that fails the check gets the full fold, and so does every file
// after it in set order. The full fold resolves provenance against the
// output set, so whatever system file a line's ref points at — normally
// its own file, but cross-file after exotic attribute mutations — is
// materialized (and thereby reported dirty) before being rewritten. To
// stay fold-for-fold identical with Backward, a clean file is re-folded
// once an earlier cross-file write has materialized its system file: in
// Backward that clean fold runs unconditionally and overwrites such a
// write with the baseline tokens.
func (WordView) IncrementalBackwardInto(dst *confnode.Set, dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	out := sys.TrackedInto(dst, mutated.Arena())
	buf := foldBufPool.Get().(*[]byte)
	defer foldBufPool.Put(buf)
	full := false
	var retErr error
	mutated.Each(func(file string, root *confnode.Node) bool {
		// The dirty list is short and set-ordered: a linear scan beats
		// building a lookup map per experiment.
		isDirty := slices.Contains(dirty, file)
		if !isDirty && !out.IsDirty(file) {
			return true
		}
		if root == nil {
			return true
		}
		base := mutated.BaseTree(file)
		if full || !isDirty || !changedLinesKeepShape(root, base) {
			full, base = true, nil
		}
		if err := foldLines(out, root, base, buf); err != nil {
			retErr = err
			return false
		}
		return true
	})
	if retErr != nil {
		return nil, retErr
	}
	return out, nil
}

// foldBufPool recycles the scratch buffers foldLine re-joins directive
// values in, keeping the per-line fold allocation-free across experiments
// and workers.
var foldBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// changedLinesKeepShape reports whether the mutated word-view document can
// be folded line by line against its base: it has as many children as
// base, and every child that is not base's own keeps base's kind and
// provenance, so each folds onto the directive its base line came from.
func changedLinesKeepShape(root, base *confnode.Node) bool {
	if base == nil || root.NumChildren() != base.NumChildren() {
		return false
	}
	for i, line := range root.Children() {
		bl := base.Child(i)
		if line == bl {
			continue
		}
		src, ok := line.Attr(SrcAttr)
		bsrc, bok := bl.Attr(SrcAttr)
		if line.Kind != bl.Kind || ok != bok || src != bsrc {
			return false
		}
	}
	return true
}

// foldLines folds the lines of one word-view document onto the system
// directives they came from. With a base tree (changedLinesKeepShape must
// hold) it folds only the lines that are not base's own, each onto a path
// copy of its directive; with a nil base it folds every line.
func foldLines(out *confnode.Set, root, base *confnode.Node, buf *[]byte) error {
	for i, line := range root.Children() {
		if line.Kind != confnode.KindLine || (base != nil && line == base.Child(i)) {
			continue
		}
		if err := foldLine(out, line, base != nil, buf); err != nil {
			return err
		}
	}
	return nil
}

// foldLine folds one word-view line onto the system directive its
// provenance names, resolved in out — through Ref.ResolveOwned when owned
// is set, which copies only the directive's path. It is the injection hot
// path's inner loop, shaped to stay allocation-free past the ref parse:
// children are scanned in place (no per-kind slices), the value words are
// re-joined into the caller's scratch buffer, and the directive value is
// only rewritten when the joined value actually differs.
func foldLine(out *confnode.Set, line *confnode.Node, owned bool, buf *[]byte) error {
	srcStr, ok := line.Attr(SrcAttr)
	if !ok {
		return fmt.Errorf("word view: line without provenance: %w", ErrNotExpressible)
	}
	ref, err := template.ParseRef(srcStr)
	if err != nil {
		return err
	}
	var dir *confnode.Node
	if owned {
		dir, err = ref.ResolveOwned(out)
	} else {
		dir, err = ref.Resolve(out)
	}
	if err != nil {
		return fmt.Errorf("word view: stale provenance %q: %v: %w", srcStr, err, ErrNotExpressible)
	}
	var name string
	b := (*buf)[:0]
	sawValue := false
	for _, w := range line.Children() {
		if w.Kind != confnode.KindWord {
			continue
		}
		if w.AttrDefault(TokenAttr, TokenValue) == TokenName {
			name = w.Value
		} else {
			if sawValue {
				b = append(b, ' ')
			}
			b = append(b, w.Value...)
			sawValue = true
		}
	}
	*buf = b
	dir.Name = name
	if string(b) != dir.Value {
		dir.Value = string(b)
	}
	return nil
}
