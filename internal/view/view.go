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
	"sync/atomic"

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

// Incremental is an optional View extension used by the engine's fast
// injection path. IncrementalBackward is Backward restricted to the files
// a scenario dirtied: implementations build the result as sys.Tracked()
// and fold only the dirty view files onto it, so untouched files share the
// baseline trees and the returned (tracked) set reports exactly the system
// files the back-transform rewrote. The engine serializes those and reuses
// cached baseline bytes for the rest; views that do not implement
// Incremental simply fall back to the full Backward.
//
// Contract notes:
//   - dirty lists the mutated view files in set order; mutated is sealed
//     (reads are safe, clean files share baseline trees).
//   - The result may adopt mutated's dirty trees without cloning; callers
//     must not reuse mutated afterwards.
//   - Errors must match what Backward would return for the same mutation,
//     so the fast and reference paths stay record-for-record identical.
//   - A view that embeds an Incremental implementation but overrides
//     Backward MUST also override (or shadow) IncrementalBackward:
//     inheriting one without the other desynchronizes the two paths.
type Incremental interface {
	View
	IncrementalBackward(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error)
}

// IncrementalInto is an optional refinement of Incremental for views whose
// incremental back-transform can rebuild a caller-owned tracked wrapper
// instead of allocating one per experiment. dst is the wrapper to reuse
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
		retErr = backwardWordFile(out, root, buf)
	})
	if retErr != nil {
		return nil, retErr
	}
	return out, nil
}

// IncrementalBackward implements Incremental: only the dirty files' lines
// are folded back. Folding resolves provenance against the tracked output
// set, so whatever system file a line's ref points at — normally its own
// file, but cross-file after exotic attribute mutations — is materialized
// (and thereby reported dirty) before being rewritten. To stay
// fold-for-fold identical with the full Backward, files are visited in
// set order and a clean file is re-folded once an earlier cross-file
// write has materialized its system file: in the full path that clean
// fold runs unconditionally and overwrites such a write with the
// baseline tokens.
func (v WordView) IncrementalBackward(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	return v.IncrementalBackwardInto(nil, dirty, mutated, sys)
}

// IncrementalBackwardInto implements IncrementalInto.
func (WordView) IncrementalBackwardInto(dst *confnode.Set, dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	out := sys.TrackedInto(dst, mutated.Arena())
	buf := foldBufPool.Get().(*[]byte)
	defer foldBufPool.Put(buf)
	var retErr error
	mutated.Each(func(file string, root *confnode.Node) bool {
		// The dirty list is short and set-ordered: a linear scan beats
		// building a lookup map per experiment.
		if !slices.Contains(dirty, file) && !out.IsDirty(file) {
			return true
		}
		if root == nil {
			return true
		}
		if err := backwardWordFile(out, root, buf); err != nil {
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

// foldBufPool recycles the scratch buffers backwardWordFile re-joins
// directive values in, keeping the per-line fold allocation-free across
// experiments and workers.
var foldBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// refCache memoizes template.ParseRef by source string. Provenance
// attributes come from the frozen baseline view, so a campaign folds the
// same handful of ref strings millions of times; parsing each once turns
// the per-line split/Atoi work into a map hit. It is a sync.Map because
// every campaign worker reads it on every folded line and a sync.Map
// Load takes no lock. Mutated provenance (a plugin rewriting SrcAttr)
// can introduce new strings, so the cache is capped — refCacheLen counts
// stored entries, and past the cap misses simply parse without storing.
var (
	refCache    sync.Map // string → template.Ref
	refCacheLen atomic.Int32
)

// refCacheCap bounds refCache; far above any real configuration's line
// count, small enough that adversarial SrcAttr churn stays cheap.
const refCacheCap = 4096

// parseRefCached is template.ParseRef through refCache. Only successful
// parses are cached; errors keep ParseRef's exact wording.
func parseRefCached(s string) (template.Ref, error) {
	if ref, ok := refCache.Load(s); ok {
		return ref.(template.Ref), nil
	}
	ref, err := template.ParseRef(s)
	if err != nil {
		return template.Ref{}, err
	}
	// Reserve a slot before storing, so concurrent misses never push the
	// cache past its cap; a slot past the cap, or lost to a racing store
	// of the same string, is handed back.
	if refCacheLen.Add(1) > refCacheCap {
		refCacheLen.Add(-1)
	} else if _, loaded := refCache.LoadOrStore(s, ref); loaded {
		refCacheLen.Add(-1)
	}
	return ref, nil
}

// backwardWordFile folds one word-view document's lines onto the system
// directives they came from. It is the injection hot path's inner loop,
// shaped to stay allocation-free for clean lines: children are scanned in
// place (no per-kind slices), the value words are re-joined into the
// caller's scratch buffer, and the directive is only rewritten when the
// joined value actually differs — folding the baseline back onto itself,
// which is what almost every line of almost every experiment does, writes
// nothing.
func backwardWordFile(out *confnode.Set, root *confnode.Node, buf *[]byte) error {
	for _, line := range root.Children() {
		if line.Kind != confnode.KindLine {
			continue
		}
		srcStr, ok := line.Attr(SrcAttr)
		if !ok {
			return fmt.Errorf("word view: line without provenance: %w", ErrNotExpressible)
		}
		ref, err := parseRefCached(srcStr)
		if err != nil {
			return err
		}
		dir, err := ref.Resolve(out)
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
	}
	return nil
}
