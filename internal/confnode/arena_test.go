package confnode

import (
	"fmt"
	"testing"
)

// buildTree makes a document with sections, attributes and directives —
// enough shape to exercise every CloneInto branch.
func buildTree() *Node {
	root := New(KindDocument, "f.conf")
	for s := 0; s < 3; s++ {
		sec := New(KindSection, fmt.Sprintf("sec%d", s))
		sec.SetAttr("style", "brackets")
		for d := 0; d < 5; d++ {
			dir := NewValued(KindDirective, fmt.Sprintf("key%d", d), fmt.Sprintf("val%d", d))
			dir.SetAttr("sep", " = ")
			sec.Append(dir)
		}
		root.Append(sec)
	}
	return root
}

func TestCloneIntoEqualsClone(t *testing.T) {
	src := buildTree()
	var a Arena
	c := src.CloneInto(&a)
	if !c.Equal(src) {
		t.Fatal("arena clone differs from source")
	}
	if c.Parent() != nil {
		t.Fatal("arena clone has a parent")
	}
	// Mutating the clone leaves the source untouched (attr COW included).
	c.Child(0).Child(1).Value = "mutated"
	c.Child(0).Child(1).SetAttr("sep", ":")
	if src.Child(0).Child(1).Value != "val1" {
		t.Error("source value mutated through clone")
	}
	if v, _ := src.Child(0).Child(1).Attr("sep"); v != " = " {
		t.Error("source attr mutated through clone")
	}
}

// TestArenaReuse: after Reset the same memory serves the next clone; a
// long sequence of clone/reset cycles must stay correct (and, at steady
// state, allocation-free — checked by the engine's allocs test).
func TestArenaReuse(t *testing.T) {
	src := buildTree()
	var a Arena
	for i := 0; i < 50; i++ {
		a.Reset()
		c := src.CloneInto(&a)
		if !c.Equal(src) {
			t.Fatalf("cycle %d: clone differs", i)
		}
		c.Child(1).Child(0).Value = fmt.Sprint(i)
	}
}

func TestArenaSteadyStateAllocs(t *testing.T) {
	src := buildTree()
	src.Freeze()
	var a Arena
	a.Reset()
	src.CloneInto(&a) // warm the chunks
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		src.CloneInto(&a)
	})
	if allocs != 0 {
		t.Errorf("steady-state CloneInto allocs/op = %v, want 0", allocs)
	}
}

// TestFreezeAttrCOW: freezing shares attribute maps between source and
// clones; the first mutation on either side copies privately.
func TestFreezeAttrCOW(t *testing.T) {
	src := buildTree()
	src.Freeze()
	clone := src.Clone()
	dir := clone.Child(0).Child(0)
	dir.SetAttr("sep", "=")
	if v, _ := src.Child(0).Child(0).Attr("sep"); v != " = " {
		t.Error("mutating a clone's attrs leaked into the frozen source")
	}
	// The source side COWs too.
	src.Child(0).Child(0).SetAttr("sep", "\t")
	if v, _ := clone.Child(1).Child(0).Attr("sep"); v != " = " {
		t.Error("source mutation leaked into an untouched clone node")
	}
	// DelAttr on a shared map must also copy first.
	clone2 := src.Clone()
	clone2.Child(2).Child(0).DelAttr("sep")
	if _, ok := src.Child(2).Child(0).Attr("sep"); !ok {
		t.Error("DelAttr on clone removed the frozen source's attr")
	}
}

// TestTrackedWithArena: materialization through a tracked set draws from
// the arena and keeps dirty-file tracking exact.
func TestTrackedWithArena(t *testing.T) {
	base := NewSet()
	base.Put("a.conf", buildTree())
	base.Put("b.conf", buildTree())
	base.Freeze()

	var a Arena
	tr := base.TrackedInto(nil, &a)
	tr.Get("a.conf").Child(0).Child(0).Value = "x"
	dirty := tr.SealAppend(nil)
	if len(dirty) != 1 || dirty[0] != "a.conf" {
		t.Fatalf("dirty = %v", dirty)
	}
	if base.Get("a.conf").Child(0).Child(0).Value != "val0" {
		t.Error("base mutated through tracked set")
	}
}

// TestTrackedIntoReuse: one reused wrapper tracks experiment after
// experiment without cross-talk, including Put of a new file (which must
// copy the shared order, not append to the base's).
func TestTrackedIntoReuse(t *testing.T) {
	base := NewSet()
	base.Put("a.conf", buildTree())
	base.Put("b.conf", buildTree())
	baseNames := fmt.Sprint(base.Names())

	var a Arena
	var tr *Set
	for i := 0; i < 10; i++ {
		a.Reset()
		tr = base.TrackedInto(tr, &a)
		switch i % 3 {
		case 0:
			tr.Get("b.conf").Child(1).Child(2).Value = fmt.Sprint(i)
			if d := tr.SealAppend(nil); len(d) != 1 || d[0] != "b.conf" {
				t.Fatalf("cycle %d: dirty = %v", i, d)
			}
		case 1:
			tr.Put("new.conf", New(KindDocument, "new.conf"))
			if d := tr.SealAppend(nil); len(d) != 1 || d[0] != "new.conf" {
				t.Fatalf("cycle %d: dirty = %v", i, d)
			}
			if tr.Len() != 3 {
				t.Fatalf("cycle %d: tracked len = %d", i, tr.Len())
			}
		case 2:
			if d := tr.SealAppend(nil); len(d) != 0 {
				t.Fatalf("cycle %d: clean experiment dirty = %v", i, d)
			}
		}
		if got := fmt.Sprint(base.Names()); got != baseNames {
			t.Fatalf("cycle %d: base order mutated: %v", i, got)
		}
	}
}

// TestSetEach: Each iterates in order without materializing on sealed
// tracked sets.
func TestSetEach(t *testing.T) {
	base := NewSet()
	base.Put("a.conf", buildTree())
	base.Put("b.conf", buildTree())
	tr := base.TrackedInto(nil, nil)
	tr.Get("b.conf").Child(0).Child(0).Value = "x"
	tr.SealAppend(nil)
	var names []string
	tr.Each(func(file string, root *Node) bool {
		names = append(names, file)
		if root == nil {
			t.Errorf("nil root for %s", file)
		}
		return true
	})
	if fmt.Sprint(names) != "[a.conf b.conf]" {
		t.Errorf("Each order = %v", names)
	}
	// Each on the sealed set must not have inflated the dirty list.
	if d := tr.AppendDirty(nil); len(d) != 1 || d[0] != "b.conf" {
		t.Errorf("dirty after Each = %v", d)
	}
}
