package confnode

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// trackedFixture builds a small deterministic multi-file set.
func trackedFixture(files, directives int) *Set {
	s := NewSet()
	for f := 0; f < files; f++ {
		doc := New(KindDocument, fmt.Sprintf("f%02d.conf", f))
		for d := 0; d < directives; d++ {
			n := NewValued(KindDirective, fmt.Sprintf("key%d", d), fmt.Sprintf("value%d", d))
			n.SetAttr("sep", " = ")
			doc.Append(n)
		}
		s.Put(doc.Name, doc)
	}
	return s
}

func TestTrackedBasics(t *testing.T) {
	base := trackedFixture(3, 4)
	snap := base.Clone()
	tr := base.TrackedInto(nil, nil)
	if tr.base == nil || base.base != nil {
		t.Fatal("tracking flags wrong")
	}
	if got := len(tr.AppendDirty(nil)); got != 0 {
		t.Fatalf("fresh tracked set has %d dirty files", got)
	}

	// Mutating through Get dirties exactly that file and leaves the base
	// untouched.
	doc := tr.Get("f01.conf")
	doc.Child(0).Value = "mutated"
	dirty := tr.SealAppend(nil)
	if len(dirty) != 1 || dirty[0] != "f01.conf" {
		t.Fatalf("dirty = %v, want [f01.conf]", dirty)
	}
	if !base.Equal(snap) {
		t.Fatal("baseline mutated through tracked wrapper")
	}
	// Clean files share the base tree after sealing (pointer equality is
	// the cleanness test).
	if tr.Get("f00.conf") != base.Get("f00.conf") {
		t.Error("sealed clean file does not share the base tree")
	}
	if tr.Get("f01.conf") == base.Get("f01.conf") {
		t.Error("dirty file still shares the base tree")
	}
	if tr.Get("f01.conf").Child(0).Value != "mutated" {
		t.Error("mutation lost")
	}
}

func TestTrackedPutNewFile(t *testing.T) {
	base := trackedFixture(2, 2)
	tr := base.TrackedInto(nil, nil)
	tr.Put("new.conf", New(KindDocument, "new.conf"))
	dirty := tr.SealAppend(nil)
	if len(dirty) != 1 || dirty[0] != "new.conf" {
		t.Fatalf("dirty = %v, want [new.conf]", dirty)
	}
	if tr.Len() != 3 || base.Len() != 2 {
		t.Fatalf("len tracked=%d base=%d", tr.Len(), base.Len())
	}
	if tr.Names()[2] != "new.conf" {
		t.Errorf("Names = %v", tr.Names())
	}
}

func TestTrackedWalkDirtiesEverything(t *testing.T) {
	base := trackedFixture(3, 2)
	tr := base.TrackedInto(nil, nil)
	tr.Walk(func(_ string, root *Node) { root.Append(New(KindBlank, "")) })
	if got, want := len(tr.SealAppend(nil)), 3; got != want {
		t.Fatalf("dirty count = %d, want %d", got, want)
	}
}

func TestUntrackedSetReportsAllDirty(t *testing.T) {
	s := trackedFixture(2, 2)
	if got := len(s.AppendDirty(nil)); got != 2 {
		t.Fatalf("untracked AppendDirty = %d files, want all (2)", got)
	}
}

func TestTrackedCloneFlattens(t *testing.T) {
	base := trackedFixture(2, 2)
	tr := base.TrackedInto(nil, nil)
	tr.Get("f00.conf").Child(0).Value = "x"
	c := tr.Clone()
	if c.base != nil {
		t.Fatal("clone is still tracked")
	}
	if !c.Equal(tr) {
		t.Fatal("clone differs from source")
	}
	if c.Get("f01.conf") == base.Get("f01.conf") {
		t.Fatal("clone shares a tree with the base")
	}
}

// applyRandomOps drives a pseudo-random mutation program against the set
// through the public API, the way scenario Apply implementations do. The
// ops byte stream makes the same generator usable from the fuzzer.
func applyRandomOps(s *Set, ops []byte) {
	names := s.Names()
	for i := 0; i+2 < len(ops); i += 3 {
		op, fi, ni := ops[i], ops[i+1], ops[i+2]
		if len(names) == 0 {
			return
		}
		name := names[int(fi)%len(names)]
		switch op % 8 {
		case 0: // modify a directive value
			if doc := s.Get(name); doc != nil && doc.NumChildren() > 0 {
				doc.Child(int(ni) % doc.NumChildren()).Value = fmt.Sprintf("mut%d", i)
			}
		case 1: // set an attribute
			if doc := s.Get(name); doc != nil && doc.NumChildren() > 0 {
				doc.Child(int(ni)%doc.NumChildren()).SetAttr("k", fmt.Sprintf("v%d", i))
			}
		case 2: // remove a node
			if doc := s.Get(name); doc != nil && doc.NumChildren() > 0 {
				doc.Child(int(ni) % doc.NumChildren()).Remove()
			}
		case 3: // append a node
			if doc := s.Get(name); doc != nil {
				doc.Append(NewValued(KindDirective, fmt.Sprintf("extra%d", i), "1"))
			}
		case 4: // replace a whole file
			s.Put(name, New(KindDocument, name))
		case 5: // add a new file
			s.Put(fmt.Sprintf("added%d.conf", int(ni)%4), New(KindDocument, "added"))
			names = s.Names()
		case 6: // read without mutating (still conservatively dirty)
			_ = s.Get(name)
		case 7: // write one node through a path copy
			if n, _ := s.ResolvePath(name, []int{int(ni) % 4}); n != nil {
				n.Value = fmt.Sprintf("path%d", i)
			}
		}
	}
}

// checkDirtyNotUnderInclusive is the tracker's core soundness property: a
// file whose tracked tree differs from the baseline MUST be reported
// dirty. (Over-inclusion — reporting an untouched file dirty — costs only
// speed; under-inclusion would make the engine serve stale cached bytes.)
func checkDirtyNotUnderInclusive(t *testing.T, base *Set, ops []byte) {
	t.Helper()
	snap := base.Clone()
	tr := base.TrackedInto(nil, nil)
	applyRandomOps(tr, ops)
	dirty := map[string]bool{}
	for _, name := range tr.SealAppend(nil) {
		dirty[name] = true
	}
	if !base.Equal(snap) {
		t.Fatalf("ops %v: baseline mutated through tracked wrapper", ops)
	}
	for _, name := range tr.Names() {
		trTree, baseTree := tr.Get(name), base.Get(name)
		if !trTree.Equal(baseTree) && !dirty[name] {
			t.Fatalf("ops %v: file %s changed but was not reported dirty", ops, name)
		}
	}
}

func TestTrackedDirtyNeverUnderInclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		base := trackedFixture(1+rng.Intn(5), 1+rng.Intn(5))
		if iter%2 == 1 {
			base.Freeze()
		}
		ops := make([]byte, 3*(1+rng.Intn(10)))
		rng.Read(ops)
		checkDirtyNotUnderInclusive(t, base, ops)
	}
}

func FuzzTrackedDirty(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{2, 1, 0, 4, 0, 0, 0, 1, 1})
	f.Add([]byte{5, 0, 3, 0, 3, 0, 6, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkDirtyNotUnderInclusive(t, trackedFixture(3, 3), ops)
		frozen := trackedFixture(3, 3)
		frozen.Freeze()
		checkDirtyNotUnderInclusive(t, frozen, ops)
	})
}

// nestedFixture builds one file three sections deep:
//
//	doc
//	├── a (section) ── a0, a1 (directives)
//	└── b (section) ── b0 (section) ── x (directive, one child y), z
func nestedFixture() *Set {
	doc := New(KindDocument, "n.conf")
	a := New(KindSection, "a")
	a.Append(NewValued(KindDirective, "a0", "1"), NewValued(KindDirective, "a1", "2"))
	x := NewValued(KindDirective, "x", "3")
	x.SetAttr("src", "n.conf#1.0.0")
	x.Append(NewValued(KindWord, "", "y"))
	b0 := New(KindSection, "b0")
	b0.Append(x, NewValued(KindDirective, "z", "4"))
	b := New(KindSection, "b")
	b.Append(b0)
	doc.Append(a, b)
	s := NewSet()
	s.Put("n.conf", doc)
	return s
}

// frozenNodes counts the frozen nodes of a subtree.
func frozenNodes(n *Node) int {
	count := 0
	n.Walk(func(m *Node) bool {
		if m.frozen {
			count++
		}
		return true
	})
	return count
}

// TestResolvePathCopiesOnlyThePath checks the path-granular copy: on a
// tracked set over a frozen base the root and the sections on the path
// are private copies, the target's subtree is a deep copy, every other
// node is still the base's, and the base never sees the write.
func TestResolvePathCopiesOnlyThePath(t *testing.T) {
	base := nestedFixture()
	base.Freeze()
	snap := base.Clone()
	br := base.Get("n.conf")
	tr := base.TrackedInto(nil, nil)

	x, found := tr.ResolvePath("n.conf", []int{1, 0, 0})
	if !found || x == nil || x.Name != "x" {
		t.Fatalf("ResolvePath = %v, %v", x, found)
	}
	x.Value = "30"
	x.Child(0).Value = "yy"
	x.SetAttr("src", "moved")
	if !base.Equal(snap) {
		t.Fatal("write through ResolvePath reached the base")
	}
	if dirty := tr.AppendDirty(nil); len(dirty) != 1 || dirty[0] != "n.conf" {
		t.Fatalf("dirty = %v, want [n.conf]", dirty)
	}
	root := tr.tree("n.conf")
	b, b0 := root.Child(1), root.Child(1).Child(0)
	for _, n := range []*Node{root, b, b0, x, x.Child(0)} {
		if n.frozen {
			t.Errorf("%s on the path is still frozen", n)
		}
	}
	if root.Child(0) != br.Child(0) || b0.Child(1) != br.Child(1).Child(0).Child(1) {
		t.Error("nodes off the path were copied")
	}
	if x.Parent() != b0 || b0.Parent() != b || b.Parent() != root || x.Index() != 0 {
		t.Error("path copies are not linked to each other")
	}

	// A second path through the same sections reuses their copies and
	// keeps the first write.
	z, _ := tr.ResolvePath("n.conf", []int{1, 0, 1})
	z.Value = "40"
	if tr.tree("n.conf").Child(1) != b || x.Value != "30" {
		t.Error("second path lost the first one's copies")
	}

	// Get owns the rest of the tree: nothing frozen is left, and the
	// content is exactly the base plus the two writes.
	want := snap.Clone()
	wx := want.Get("n.conf").Child(1).Child(0).Child(0)
	wx.Value, wx.Child(0).Value = "30", "yy"
	wx.SetAttr("src", "moved")
	want.Get("n.conf").Child(1).Child(0).Child(1).Value = "40"
	got := tr.Get("n.conf")
	if frozenNodes(got) != 0 {
		t.Errorf("Get left %d frozen nodes in a partial tree", frozenNodes(got))
	}
	if !tr.Equal(want) {
		t.Errorf("tracked tree after Get:\n%swant:\n%s", tr.Dump(), want.Dump())
	}
	if !base.Equal(snap) {
		t.Fatal("owning the partial tree reached the base")
	}
}

// TestResolvePathWalkOwns checks that Walk, like Get, hands out a fully
// owned tree after a path copy.
func TestResolvePathWalkOwns(t *testing.T) {
	base := nestedFixture()
	base.Freeze()
	tr := base.TrackedInto(nil, nil)
	tr.ResolvePath("n.conf", []int{0, 1})
	tr.Walk(func(_ string, root *Node) {
		if n := frozenNodes(root); n != 0 {
			t.Errorf("Walk handed out %d frozen nodes", n)
		}
	})
}

// TestResolvePathPutDropsPartial checks that a tree Put over a partial
// file is taken as it is: Get does not copy into it.
func TestResolvePathPutDropsPartial(t *testing.T) {
	base := nestedFixture()
	base.Freeze()
	tr := base.TrackedInto(nil, nil)
	tr.ResolvePath("n.conf", []int{0, 0})
	repl := base.Get("n.conf")
	tr.Put("n.conf", repl)
	if tr.Get("n.conf") != repl || frozenNodes(repl) == 0 {
		t.Error("Put tree was owned as if still partial")
	}
}

// TestResolvePathElsewhereIsGet checks the cases ResolvePath leaves as
// Get plus a walk: untracked sets, sealed sets, unfrozen bases, files
// already materialized, the root itself, and misses, which copy nothing.
func TestResolvePathElsewhereIsGet(t *testing.T) {
	plain := nestedFixture()
	if n, found := plain.ResolvePath("n.conf", []int{1, 0, 0}); !found || n != plain.Get("n.conf").Child(1).Child(0).Child(0) {
		t.Error("untracked: not the set's own node")
	}

	unfrozen := nestedFixture()
	tr := unfrozen.TrackedInto(nil, nil)
	n, _ := tr.ResolvePath("n.conf", []int{1, 0, 0})
	if root := tr.tree("n.conf"); root.Child(0) == unfrozen.Get("n.conf").Child(0) || n.Parent().Parent().Parent() != root {
		t.Error("unfrozen base: file was not materialized whole")
	}

	frozen := nestedFixture()
	frozen.Freeze()
	sealed := frozen.TrackedInto(nil, nil)
	sealed.SealAppend(nil)
	if n, _ := sealed.ResolvePath("n.conf", []int{0}); n != frozen.Get("n.conf").Child(0) {
		t.Error("sealed: did not return the shared base node")
	}

	tr = frozen.TrackedInto(nil, nil)
	whole := tr.Get("n.conf")
	if n, _ := tr.ResolvePath("n.conf", []int{0, 1}); n != whole.Child(0).Child(1) {
		t.Error("materialized file: not the owned node")
	}

	tr = frozen.TrackedInto(nil, nil)
	if root, _ := tr.ResolvePath("n.conf", nil); frozenNodes(root) != 0 {
		t.Error("root path: tree not owned whole")
	}

	tr = frozen.TrackedInto(nil, nil)
	if n, found := tr.ResolvePath("n.conf", []int{1, 5}); n != nil || !found {
		t.Errorf("miss = %v, %v; want nil, true", n, found)
	}
	if n, found := tr.ResolvePath("none.conf", []int{0}); n != nil || found {
		t.Errorf("missing file = %v, %v; want nil, false", n, found)
	}
	if dirty := tr.AppendDirty(nil); len(dirty) != 0 {
		t.Errorf("misses dirtied %v", dirty)
	}
}

// TestTrackedIntoDropsPartial checks that rebuilding a wrapper forgets the
// previous experiment's partial files.
func TestTrackedIntoDropsPartial(t *testing.T) {
	base := nestedFixture()
	base.Freeze()
	tr := base.TrackedInto(nil, nil)
	tr.ResolvePath("n.conf", []int{0, 0})
	tr = base.TrackedInto(tr, nil)
	if len(tr.partial) != 0 || len(tr.AppendDirty(nil)) != 0 {
		t.Error("TrackedInto kept the previous partial state")
	}
}

// TestClonesAreNeverFrozen checks that Clone and CloneInto drop the
// frozen bit, so a copy is always writable through ResolvePath's checks,
// and that the bit costs the node no size.
func TestClonesAreNeverFrozen(t *testing.T) {
	base := nestedFixture()
	base.Freeze()
	root := base.Get("n.conf")
	if frozenNodes(root) != 9 {
		t.Fatalf("Freeze froze %d of 9 nodes", frozenNodes(root))
	}
	var a Arena
	for label, c := range map[string]*Node{"Clone": root.Clone(), "CloneInto": root.CloneInto(&a), "nil arena": root.CloneInto(nil)} {
		if n := frozenNodes(c); n != 0 {
			t.Errorf("%s copied the frozen bit to %d nodes", label, n)
		}
	}
	if got := unsafe.Sizeof(Node{}); got != 104 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want 104", got)
	}
}
