package view

import (
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/template"
)

// multiSysSet is sysSet plus a second, independent file, so incremental
// tests can tell "untouched file shared" apart from "whole set rebuilt".
func multiSysSet() *confnode.Set {
	set := sysSet()
	other := confnode.New(confnode.KindDocument, "other.conf")
	other.Append(
		confnode.NewValued(confnode.KindDirective, "alpha", "1"),
		confnode.NewValued(confnode.KindDirective, "beta", "2 3"),
	)
	set.Put("other.conf", other)
	return set
}

// checkIncremental applies mutate to a tracked forward view and verifies
// the incremental backward result against the full Backward reference:
// dirty files must be structurally identical, clean files must share the
// baseline system trees by pointer.
func checkIncremental(t *testing.T, v Incremental, sys *confnode.Set, mutate func(*confnode.Set)) {
	t.Helper()
	fwd, err := v.Forward(sys)
	if err != nil {
		t.Fatal(err)
	}

	refMutated := fwd.Clone()
	mutate(refMutated)
	want, err := v.Backward(refMutated, sys)
	if err != nil {
		t.Fatal(err)
	}

	tracked := fwd.TrackedInto(nil, nil)
	mutate(tracked)
	viewDirty := tracked.SealAppend(nil)
	out, err := v.IncrementalBackward(viewDirty, tracked, sys)
	if err != nil {
		t.Fatal(err)
	}
	sysDirty := map[string]bool{}
	for _, name := range out.SealAppend(nil) {
		sysDirty[name] = true
	}

	for _, name := range want.Names() {
		if !sysDirty[name] {
			continue
		}
		if !out.Get(name).Equal(want.Get(name)) {
			t.Errorf("dirty file %s diverges from full Backward:\nfast:\n%s\nreference:\n%s",
				name, out.Get(name).Dump(), want.Get(name).Dump())
		}
	}
	for _, name := range out.Names() {
		if sysDirty[name] {
			continue
		}
		if out.Get(name) != sys.Get(name) {
			t.Errorf("clean file %s does not share the baseline tree", name)
		}
	}
}

func TestStructViewIncrementalBackward(t *testing.T) {
	sys := multiSysSet()
	checkIncremental(t, StructView{}, sys, func(s *confnode.Set) {
		s.Get("my.cnf").ChildByName("mysqld").Child(0).Value = "3307"
	})
	// The untouched file must stay clean.
	fwd, _ := StructView{}.Forward(sys)
	tr := fwd.TrackedInto(nil, nil)
	tr.Get("my.cnf").ChildByName("mysqld").Child(0).Value = "3307"
	out, err := StructView{}.IncrementalBackward(tr.SealAppend(nil), tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if d := out.SealAppend(nil); len(d) != 1 || d[0] != "my.cnf" {
		t.Errorf("sys dirty = %v, want [my.cnf]", d)
	}
}

func TestWordViewIncrementalBackward(t *testing.T) {
	sys := multiSysSet()
	checkIncremental(t, WordView{}, sys, func(s *confnode.Set) {
		// Typo a word in my.cnf only.
		line := s.Get("my.cnf").ChildrenByKind(confnode.KindLine)[0]
		line.ChildrenByKind(confnode.KindWord)[0].Value = "prt"
	})
}

func TestWordViewIncrementalDirtiesOnlyTouchedSysFile(t *testing.T) {
	sys := multiSysSet()
	v := WordView{}
	fwd, _ := v.Forward(sys)
	tr := fwd.TrackedInto(nil, nil)
	line := tr.Get("other.conf").ChildrenByKind(confnode.KindLine)[1]
	line.ChildrenByKind(confnode.KindWord)[1].Value = "99"
	out, err := v.IncrementalBackward(tr.SealAppend(nil), tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if d := out.SealAppend(nil); len(d) != 1 || d[0] != "other.conf" {
		t.Fatalf("sys dirty = %v, want [other.conf]", d)
	}
	if out.Get("my.cnf") != sys.Get("my.cnf") {
		t.Error("my.cnf was rebuilt despite being clean")
	}
	if got := out.Get("other.conf").ChildByName("beta"); got == nil || got.Value != "99 3" {
		t.Errorf("folded beta = %v", got)
	}
}

func TestWordViewIncrementalCrossFileProvenance(t *testing.T) {
	// A line whose provenance is redirected into another file must
	// materialize — and dirty — that file instead of mutating the shared
	// baseline tree, and the result must still match the full Backward
	// fold for fold (in the full path the redirected write into a clean
	// file is overwritten again when that file's own lines are folded).
	redirect := func(s *confnode.Set) {
		otherSrc, _ := s.Get("other.conf").ChildrenByKind(confnode.KindLine)[0].Attr(SrcAttr)
		s.Get("my.cnf").ChildrenByKind(confnode.KindLine)[0].SetAttr(SrcAttr, otherSrc)
	}

	sys := multiSysSet()
	snapshot := sys.Clone()
	checkIncremental(t, WordView{}, sys, redirect)
	if !sys.Equal(snapshot) {
		t.Fatal("baseline system set mutated by cross-file fold")
	}

	// The fold target itself must be reported system-dirty.
	v := WordView{}
	fwd, _ := v.Forward(sys)
	tr := fwd.TrackedInto(nil, nil)
	redirect(tr)
	out, err := v.IncrementalBackward(tr.SealAppend(nil), tr, sys)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range out.SealAppend(nil) {
		if name == "other.conf" {
			found = true
		}
	}
	if !found {
		t.Error("cross-file fold target not reported dirty")
	}
}

// frozenFold builds the engine's fast-path inputs over sys: the frozen
// forward view and the frozen round trip of the unmutated view, which is
// what the engine folds onto.
func frozenFold(t *testing.T, sys *confnode.Set) (fwd, base *confnode.Set) {
	t.Helper()
	fwd, err := WordView{}.Forward(sys)
	if err != nil {
		t.Fatal(err)
	}
	base, err = WordView{}.Backward(fwd.Clone(), sys)
	if err != nil {
		t.Fatal(err)
	}
	fwd.Freeze()
	base.Freeze()
	return fwd, base
}

// typoWord writes value into one word of the view through a path copy,
// the way the typo plugin's scenarios do.
func typoWord(file string, line, word int, value string) func(*confnode.Set) {
	return func(s *confnode.Set) {
		w, err := template.Ref{File: file, Indices: []int{line, word}}.ResolveOwned(s)
		if err != nil {
			panic(err)
		}
		w.Value = value
	}
}

// checkFrozenFold runs mutate on a tracked frozen view, folds it onto the
// frozen round trip and compares every system file with the full
// Backward onto the parsed configuration. It returns the fold's output
// and its system-dirty files.
func checkFrozenFold(t *testing.T, sys *confnode.Set, mutate func(*confnode.Set)) (*confnode.Set, []string) {
	t.Helper()
	fwd, base := frozenFold(t, sys)
	refMutated := fwd.Clone()
	mutate(refMutated)
	want, err := WordView{}.Backward(refMutated, sys)
	if err != nil {
		t.Fatal(err)
	}
	tracked := fwd.TrackedInto(nil, nil)
	mutate(tracked)
	out, err := WordView{}.IncrementalBackwardInto(nil, tracked.SealAppend(nil), tracked, base)
	if err != nil {
		t.Fatal(err)
	}
	dirty := out.SealAppend(nil)
	if !out.Equal(want) {
		t.Errorf("fold onto the round trip diverges from Backward:\nfast:\n%sreference:\n%s", out.Dump(), want.Dump())
	}
	return out, dirty
}

// TestWordViewIncrementalFoldsOnlyChangedLines checks the path-granular
// fold: only the changed line's directive is copied, every other node of
// its system file is still the baseline's, and other files stay clean.
func TestWordViewIncrementalFoldsOnlyChangedLines(t *testing.T) {
	sys := multiSysSet()
	out, dirty := checkFrozenFold(t, sys, typoWord("my.cnf", 1, 1, "61M"))
	if len(dirty) != 1 || dirty[0] != "my.cnf" {
		t.Fatalf("sys dirty = %v, want [my.cnf]", dirty)
	}
	root := out.Get("my.cnf")
	baseRoot := out.BaseTree("my.cnf")
	if root == baseRoot || root.Child(1) == baseRoot.Child(1) {
		t.Fatal("path to the changed directive was not copied")
	}
	if root.Child(1).Child(0) != baseRoot.Child(1).Child(0) || root.Child(3) != baseRoot.Child(3) {
		t.Error("directives off the changed line's path were copied")
	}
	if got := root.Child(1).Child(1).Value; got != "61M" {
		t.Errorf("folded key_buffer_size = %q", got)
	}
}

// TestWordViewIncrementalNormalizingBaseline checks why the engine folds
// onto the round trip: a value the word view normalizes (runs of spaces
// become one) is rewritten by every full fold, so skipping its clean line
// is exact only on a baseline that already holds the normalized value.
func TestWordViewIncrementalNormalizingBaseline(t *testing.T) {
	sys := multiSysSet()
	sys.Get("other.conf").Child(1).Value = "2   3"
	_, dirty := checkFrozenFold(t, sys, typoWord("other.conf", 0, 1, "11"))
	if len(dirty) != 1 || dirty[0] != "other.conf" {
		t.Fatalf("sys dirty = %v, want [other.conf]", dirty)
	}
}

// TestWordViewIncrementalShapeChangeFoldsFully checks the fallback: a
// file that loses a line, or a line whose provenance moves into another
// file, is folded whole, and so is every file after it.
func TestWordViewIncrementalShapeChangeFoldsFully(t *testing.T) {
	sys := multiSysSet()
	checkFrozenFold(t, sys, func(s *confnode.Set) {
		s.Get("other.conf").Child(0).Remove()
	})
	_, dirty := checkFrozenFold(t, sys, func(s *confnode.Set) {
		otherSrc, _ := s.Get("other.conf").Child(0).Attr(SrcAttr)
		line, err := template.Ref{File: "my.cnf", Indices: []int{0}}.ResolveOwned(s)
		if err != nil {
			panic(err)
		}
		line.SetAttr(SrcAttr, otherSrc)
	})
	if len(dirty) != 2 {
		t.Errorf("sys dirty = %v, want both files", dirty)
	}
}
