package confnode

// Arena is a bump allocator for the short-lived node clones of the
// injection hot path. Every experiment clones the file trees a scenario
// touches (through Tracked-set materialization) and throws the clones away
// as soon as the mutated configuration is serialized; allocating those
// clones from the regular heap made Node.Clone ~84% of the engine's
// allocations. An Arena instead hands out nodes, child slices and
// attribute lists from reusable chunks: one Reset per experiment and the
// same memory serves the next clone, so the steady-state hot path
// allocates nothing for cloning at all.
//
// Contract: everything returned by CloneInto (and by Set accessors whose
// set carries the arena, see TrackedInto) is valid only until the next
// Reset. Callers must drop every reference into the arena before
// resetting — the engine does so by construction, because an experiment's
// mutated trees never outlive the experiment. Arenas are not safe for
// concurrent use; the engine keeps one per worker.
type Arena struct {
	nodeChunks [][]Node
	nodeChunk  int // index of the chunk currently bumped
	nodeUsed   int // nodes used in the current chunk

	ptrChunks [][]*Node
	ptrChunk  int
	ptrUsed   int

	kvChunks [][]attrKV
	kvChunk  int
	kvUsed   int
}

// Chunk sizes: large enough that a typical experiment (one or two file
// trees of tens of nodes) fits in the first chunk of each kind.
const (
	arenaNodeChunk = 256
	arenaPtrChunk  = 1024
	arenaKVChunk   = 256
)

// Reset recycles the arena: all previously returned memory may be handed
// out again. See the type comment for the lifetime contract.
func (a *Arena) Reset() {
	a.nodeChunk, a.nodeUsed = 0, 0
	a.ptrChunk, a.ptrUsed = 0, 0
	a.kvChunk, a.kvUsed = 0, 0
}

// node returns a zeroed *Node from the arena. Chunks are fixed-size and
// never reallocated, so pointers into earlier chunks stay valid while
// later ones grow the arena. A nil arena allocates from the heap, as do
// ptrs and kvs.
func (a *Arena) node() *Node {
	if a == nil {
		return &Node{}
	}
	if a.nodeChunk >= len(a.nodeChunks) {
		a.nodeChunks = append(a.nodeChunks, make([]Node, arenaNodeChunk))
	}
	chunk := a.nodeChunks[a.nodeChunk]
	if a.nodeUsed == len(chunk) {
		a.nodeChunk++
		a.nodeUsed = 0
		if a.nodeChunk == len(a.nodeChunks) {
			a.nodeChunks = append(a.nodeChunks, make([]Node, arenaNodeChunk))
		}
		chunk = a.nodeChunks[a.nodeChunk]
	}
	n := &chunk[a.nodeUsed]
	a.nodeUsed++
	*n = Node{}
	return n
}

// ptrs returns a child slice of length n with capacity exactly n: growing
// it (a scenario inserting a node) falls back to a regular heap append,
// which keeps arena memory from being overwritten by a neighbour.
// Oversized requests are served from the heap directly.
func (a *Arena) ptrs(n int) []*Node {
	if a == nil || n > arenaPtrChunk {
		return make([]*Node, n)
	}
	if a.ptrChunk >= len(a.ptrChunks) {
		a.ptrChunks = append(a.ptrChunks, make([]*Node, arenaPtrChunk))
	}
	chunk := a.ptrChunks[a.ptrChunk]
	if a.ptrUsed+n > len(chunk) {
		a.ptrChunk++
		a.ptrUsed = 0
		if a.ptrChunk == len(a.ptrChunks) {
			a.ptrChunks = append(a.ptrChunks, make([]*Node, arenaPtrChunk))
		}
		chunk = a.ptrChunks[a.ptrChunk]
	}
	s := chunk[a.ptrUsed : a.ptrUsed+n : a.ptrUsed+n]
	a.ptrUsed += n
	for i := range s {
		s[i] = nil
	}
	return s
}

// kvs returns an attribute slice of length n with capacity exactly n,
// bump-allocated like ptrs: growing it (SetAttr on a fresh key) falls
// back to a regular heap append, keeping arena memory from being
// overwritten by a neighbour. Oversized requests come from the heap.
func (a *Arena) kvs(n int) []attrKV {
	if a == nil || n > arenaKVChunk {
		return make([]attrKV, n)
	}
	if a.kvChunk >= len(a.kvChunks) {
		a.kvChunks = append(a.kvChunks, make([]attrKV, arenaKVChunk))
	}
	chunk := a.kvChunks[a.kvChunk]
	if a.kvUsed+n > len(chunk) {
		a.kvChunk++
		a.kvUsed = 0
		if a.kvChunk == len(a.kvChunks) {
			a.kvChunks = append(a.kvChunks, make([]attrKV, arenaKVChunk))
		}
		chunk = a.kvChunks[a.kvChunk]
	}
	s := chunk[a.kvUsed : a.kvUsed+n : a.kvUsed+n]
	a.kvUsed += n
	return s
}

// CloneInto returns a deep copy of the subtree rooted at n with every
// node, child slice and attribute list drawn from the arena (a nil arena
// is the heap, which is Clone). The copy has no parent, is not frozen and
// obeys the arena's Reset lifetime.
func (n *Node) CloneInto(a *Arena) *Node {
	if n == nil {
		return nil
	}
	c := n.copyHead(a)
	if len(n.children) > 0 {
		cs := a.ptrs(len(n.children))
		for i, ch := range n.children {
			cc := ch.CloneInto(a)
			cc.parent = c
			cs[i] = cc
		}
		c.children = cs
	}
	return c
}

// shallowCopy returns a private copy of n whose child slice is fresh but
// holds n's own children: the siblings stay shared, and their parent
// pointers still name n. It is the path step of Set.ResolvePath. A nil
// arena allocates from the heap. The copy has no parent and is not
// frozen.
func (n *Node) shallowCopy(a *Arena) *Node {
	c := n.copyHead(a)
	if len(n.children) > 0 {
		c.children = a.ptrs(len(n.children))
		copy(c.children, n.children)
	}
	return c
}

// copyHead returns a childless, parentless, unfrozen copy of n's kind,
// name, value and attributes, drawn from the arena (nil = heap).
func (n *Node) copyHead(a *Arena) *Node {
	c := a.node()
	c.Kind, c.Name, c.Value = n.Kind, n.Name, n.Value
	if n.attrsShared {
		// Frozen source: alias the list copy-on-write instead of copying
		// every attribute per clone (see Freeze).
		c.attrs, c.attrsShared = n.attrs, true
	} else if len(n.attrs) > 0 {
		c.attrs = a.kvs(len(n.attrs))
		copy(c.attrs, n.attrs)
	}
	return c
}
