package confnode

import (
	"fmt"
	"slices"
	"sort"
)

// Set is an ordered collection of configuration trees keyed by logical file
// name. A fault scenario mutates an entire Set, which is what allows
// ConfErr to inject cross-file errors (paper §3.1).
//
// A Set can either own its trees outright (the normal case) or be a
// copy-on-write view of a base Set produced by TrackedInto. Tracked sets power
// the engine's incremental injection pipeline: a scenario applied to a
// tracked set only clones the file trees it actually reaches — over a
// frozen base, through ResolvePath, only the nodes on the path to what it
// writes — and the set records exactly those files as dirty.
type Set struct {
	order []string
	trees map[string]*Node

	// base, when non-nil, makes this Set a copy-on-write overlay: reads of
	// files absent from trees fall through to base, and mutating accessors
	// (Get, Walk, Put) first materialize a private clone into trees. A
	// file is dirty exactly when trees holds an entry for it — i.e. when
	// its tree pointer no longer equals the base's (pointer equality is
	// the generation test: untouched files still share the base tree).
	base *Set
	// sealed stops materialization: reads return the overlay tree when
	// present and the shared base tree otherwise. The engine seals a
	// tracked set after the scenario's Apply so the backward transform can
	// read it without inflating the dirty set.
	sealed bool
	// sharedOrder marks order as aliasing the base's slice; Put copies it
	// before the first append. Tracked wrappers start shared so that the
	// common scenario — mutate existing files, add none — never copies the
	// name list.
	sharedOrder bool
	// arena, when non-nil, supplies the memory for materialized clones;
	// trees drawn from it live only until the arena's next Reset. The
	// injection engine threads one arena per worker through the whole
	// mutate/fold/serialize pipeline of an experiment.
	arena *Arena
	// partial lists the overlay files whose trees are path copies (see
	// ResolvePath): private nodes on the paths written so far, shared
	// frozen base nodes everywhere else. Get and Walk own such a tree
	// fully before handing it out; Put drops the mark.
	partial []string
}

// NewSet returns an empty configuration set.
func NewSet() *Set {
	return &Set{trees: make(map[string]*Node)}
}

// TrackedInto returns a copy-on-write wrapper of the receiver, rebuilt in
// dst. Mutating the wrapper (through Get, Walk, Put, ResolvePath and the
// node APIs of the nodes they return) never touches the receiver: the
// first access to a file clones that file's tree into the wrapper — or,
// through ResolvePath over a frozen receiver, only the nodes on the
// resolved path — and marks the file dirty. AppendDirty (or SealAppend)
// then reports which files a scenario touched, which is what lets the
// engine re-serialize only those. Tracking is conservative: a file that
// was merely read through Get or Walk counts as dirty, because the caller
// could have mutated the returned nodes.
//
// The wrapper's materialized clones are drawn from a (nil = regular
// heap); trees read from it then live only until the arena's next Reset.
// dst's overlay map is reused, so a worker can track one experiment after
// another without allocating a wrapper per experiment. dst must not be in
// use; a nil dst allocates a fresh wrapper. Returns dst.
//
// The receiver must not be mutated while wrappers of it are alive.
func (s *Set) TrackedInto(dst *Set, a *Arena) *Set {
	if dst == nil {
		dst = &Set{}
	}
	clear(dst.trees)
	dst.order = s.order
	dst.sharedOrder = true
	dst.base = s
	dst.sealed = false
	dst.arena = a
	dst.partial = dst.partial[:0]
	return dst
}

// Arena returns the arena backing the set's materialized clones, nil for
// heap-backed sets. Views use it to keep an experiment's whole fold on the
// worker's arena.
func (s *Set) Arena() *Arena {
	if s == nil {
		return nil
	}
	return s.arena
}

// SealAppend ends the mutation phase of a tracked set and appends its
// dirty files (see AppendDirty) to buf. After it, reads return shared
// base trees for clean files instead of materializing clones; callers
// must treat the returned trees as read-only.
func (s *Set) SealAppend(buf []string) []string {
	s.sealed = true
	return s.AppendDirty(buf)
}

// AppendDirty appends to buf, in set order, the files whose trees may
// differ from the base set: every file that was materialized by an access
// or replaced by Put. For a set that is not tracked there is no base to
// compare against, so all files are reported dirty — the conservative
// fallback for raw sets and tree surgery performed outside the tracking
// API.
func (s *Set) AppendDirty(buf []string) []string {
	for _, name := range s.order {
		if _, ok := s.trees[name]; ok {
			buf = append(buf, name)
		}
	}
	return buf
}

// IsDirty reports whether AppendDirty would list the file: its tree was
// materialized or replaced on a tracked set, or — conservatively — it is
// simply present on an untracked one.
func (s *Set) IsDirty(name string) bool {
	if _, ok := s.trees[name]; ok {
		return true
	}
	return s.base == nil && s.contains(name)
}

// tree returns the tree for name without materializing: the overlay entry
// when present, the base's otherwise.
func (s *Set) tree(name string) *Node {
	if t, ok := s.trees[name]; ok {
		return t
	}
	if s.base != nil {
		return s.base.tree(name)
	}
	return nil
}

// contains reports whether the set (overlay or base) holds the file.
func (s *Set) contains(name string) bool {
	if _, ok := s.trees[name]; ok {
		return true
	}
	return s.base != nil && s.base.contains(name)
}

// materialize clones the base tree for name into the overlay, marking the
// file dirty, and returns the private clone. A partial overlay tree is
// owned fully first (see own).
func (s *Set) materialize(name string) *Node {
	if t, ok := s.trees[name]; ok {
		if s.unmarkPartial(name) {
			s.own(t)
		}
		return t
	}
	bt := s.base.tree(name)
	if bt == nil {
		return nil
	}
	c := bt.CloneInto(s.arena)
	s.store(name, c)
	return c
}

// store records root as the overlay tree for name.
func (s *Set) store(name string, root *Node) {
	if s.trees == nil {
		s.trees = make(map[string]*Node)
	}
	s.trees[name] = root
}

// own replaces every frozen node below the private node n with a private
// clone, turning a path-copied tree into one the caller owns outright.
func (s *Set) own(n *Node) {
	for i, c := range n.children {
		if c.frozen {
			cc := c.CloneInto(s.arena)
			cc.parent = n
			n.children[i] = cc
		} else {
			s.own(c)
		}
	}
}

// unmarkPartial drops name from the partial list, reporting whether it was
// there. The list holds the handful of files one scenario reached, so a
// linear scan beats a map.
func (s *Set) unmarkPartial(name string) bool {
	for i, p := range s.partial {
		if p == name {
			s.partial = append(s.partial[:i], s.partial[i+1:]...)
			return true
		}
	}
	return false
}

// ResolvePath returns the node at the child-index path below the file's
// root, for writing. found reports whether the set holds the file; n is
// nil when it does not, or when the path leads nowhere.
//
// On an unsealed tracked set over a frozen base, ResolvePath copies at
// path granularity instead of materializing the whole file as Get does:
// the file root and each frozen node on the path are copied shallowly —
// fresh child slice, siblings still shared with the base — and the
// target's subtree is cloned deep. The file is marked dirty and partial;
// a later Get or Walk owns the rest of the tree before returning it, so
// callers that need the whole tree keep Get's guarantee. The caller may
// mutate the returned node and its subtree only: the other children of
// its ancestors are shared with the base. Everywhere else — a sealed or
// untracked set, an unfrozen base, a file already materialized or Put —
// ResolvePath is Get followed by a walk down the path.
func (s *Set) ResolvePath(file string, indices []int) (n *Node, found bool) {
	if s == nil {
		return nil, false
	}
	root, inTrees := s.trees[file]
	if !inTrees && s.base != nil {
		root = s.base.tree(file)
	}
	copyPath := s.base != nil && !s.sealed && root != nil &&
		((inTrees && slices.Contains(s.partial, file)) || (!inTrees && root.frozen))
	if !copyPath {
		root = s.Get(file)
		return walkPath(root, indices), root != nil
	}
	// Check the path before copying anything, so a miss leaves the file
	// as it was.
	if walkPath(root, indices) == nil {
		return nil, true
	}
	if !inTrees {
		root = root.shallowCopy(s.arena)
		s.store(file, root)
		s.partial = append(s.partial, file)
	}
	n = root
	for _, i := range indices {
		if c := n.children[i]; c.frozen {
			c = c.shallowCopy(s.arena)
			c.parent = n
			n.children[i] = c
		}
		n = n.children[i]
	}
	// The target may be a path copy from this or an earlier call: own its
	// whole subtree.
	s.own(n)
	return n, true
}

// walkPath follows the child-index path down from n, returning nil when
// it leads nowhere.
func walkPath(n *Node, indices []int) *Node {
	for _, i := range indices {
		if n == nil {
			return nil
		}
		n = n.Child(i)
	}
	return n
}

// BaseTree returns the tree a tracked set's file had before any access —
// the base set's tree — or nil for an untracked set or a file the base
// lacks. The word view's back-transform compares a mutated file with it
// line by line: a line still pointer-equal to its base line is clean.
func (s *Set) BaseTree(file string) *Node {
	if s == nil || s.base == nil {
		return nil
	}
	return s.base.tree(file)
}

// Put adds or replaces the tree for the given logical file name. Insertion
// order of first occurrence is preserved by Names. On a tracked set the
// file is marked dirty.
func (s *Set) Put(name string, root *Node) {
	if !s.contains(name) {
		if s.sharedOrder {
			// The order slice aliases the base's: copy before the first
			// append so tracking never mutates the set it wraps.
			order := make([]string, len(s.order), len(s.order)+1)
			copy(order, s.order)
			s.order = order
			s.sharedOrder = false
		}
		s.order = append(s.order, name)
	}
	s.store(name, root)
	s.unmarkPartial(name)
}

// Get returns the tree for the given file name, or nil when absent. On an
// unsealed tracked set the returned tree is private and the file is
// marked dirty (the caller may mutate it freely): a file ResolvePath left
// partial is owned fully first. On a sealed tracked set clean files return
// the shared base tree, and partial files their path copies; neither may
// be mutated.
func (s *Set) Get(name string) *Node {
	if s == nil {
		return nil
	}
	if s.base != nil && !s.sealed {
		return s.materialize(name)
	}
	return s.tree(name)
}

// Names returns the logical file names in insertion order. The slice is a
// copy.
func (s *Set) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the number of files in the set.
func (s *Set) Len() int { return len(s.order) }

// Clone deep-copies the set and every tree in it. Cloning a tracked set
// flattens it: the copy owns all its trees and tracks nothing.
func (s *Set) Clone() *Set {
	c := NewSet()
	for _, name := range s.order {
		c.Put(name, s.tree(name).Clone())
	}
	return c
}

// Equal reports whether two sets contain equal trees under the same names,
// in the same order.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i, name := range s.order {
		if o.order[i] != name {
			return false
		}
		if !s.tree(name).Equal(o.tree(name)) {
			return false
		}
	}
	return true
}

// Walk visits every tree in the set in order. On an unsealed tracked set
// every visited tree is materialized first — the visitor may mutate — so a
// whole-set Walk dirties every file; scenarios that only need one file
// should use Get.
func (s *Set) Walk(visit func(file string, root *Node)) {
	for _, name := range s.order {
		var root *Node
		if s.base != nil && !s.sealed {
			root = s.materialize(name)
		} else {
			root = s.tree(name)
		}
		visit(name, root)
	}
}

// Freeze marks every tree as a frozen baseline (see Node.Freeze). The
// engine freezes a campaign's baseline sets once, so the per-experiment
// clones alias attribute lists instead of copying them, and tracked sets
// over them can copy one path (ResolvePath) instead of a whole file.
func (s *Set) Freeze() {
	for _, name := range s.order {
		s.tree(name).Freeze()
	}
}

// Each visits every (file, tree) pair in set order without materializing:
// on a tracked set, clean files yield the shared base tree, which the
// visitor must treat as read-only. The visitor returns false to stop. It
// is the allocation-free read path the serializer uses (Names copies the
// name list; Walk materializes on unsealed tracked sets).
func (s *Set) Each(visit func(file string, root *Node) bool) {
	for _, name := range s.order {
		if !visit(name, s.tree(name)) {
			return
		}
	}
}

// Dump renders all trees for debugging, files sorted by name.
func (s *Set) Dump() string {
	names := s.Names()
	sort.Strings(names)
	out := ""
	for _, name := range names {
		out += fmt.Sprintf("=== %s ===\n%s", name, s.tree(name).Dump())
	}
	return out
}
