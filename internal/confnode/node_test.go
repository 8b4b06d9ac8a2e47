package confnode

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTree() *Node {
	doc := New(KindDocument, "my.cnf")
	mysqld := New(KindSection, "mysqld")
	mysqld.Append(
		NewValued(KindDirective, "port", "3306"),
		NewValued(KindDirective, "key_buffer_size", "16M"),
	)
	dump := New(KindSection, "mysqldump")
	dump.Append(NewValued(KindDirective, "quick", ""))
	doc.Append(mysqld, dump)
	return doc
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindDocument, "document"},
		{KindSection, "section"},
		{KindDirective, "directive"},
		{KindLine, "line"},
		{KindWord, "word"},
		{KindRecord, "record"},
		{KindField, "field"},
		{KindComment, "comment"},
		{KindBlank, "blank"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestAppendSetsParent(t *testing.T) {
	doc := sampleTree()
	for _, sec := range doc.Children() {
		if sec.Parent() != doc {
			t.Errorf("child %s parent not set", sec.Name)
		}
		for _, d := range sec.Children() {
			if d.Parent() != sec {
				t.Errorf("directive %s parent not set", d.Name)
			}
		}
	}
}

func TestAppendMovesNodeBetweenParents(t *testing.T) {
	a := New(KindSection, "a")
	b := New(KindSection, "b")
	d := NewValued(KindDirective, "x", "1")
	a.Append(d)
	b.Append(d)
	if a.NumChildren() != 0 {
		t.Errorf("a still has %d children after move", a.NumChildren())
	}
	if b.NumChildren() != 1 || b.Child(0) != d {
		t.Error("b did not receive moved child")
	}
	if d.Parent() != b {
		t.Error("moved child parent not updated")
	}
}

func TestAppendNilIgnored(t *testing.T) {
	a := New(KindSection, "a")
	a.Append(nil, NewValued(KindDirective, "x", "1"), nil)
	if a.NumChildren() != 1 {
		t.Errorf("NumChildren = %d, want 1", a.NumChildren())
	}
}

func TestInsertAt(t *testing.T) {
	sec := New(KindSection, "s")
	sec.Append(NewValued(KindDirective, "a", ""), NewValued(KindDirective, "c", ""))
	sec.InsertAt(1, NewValued(KindDirective, "b", ""))
	names := childNames(sec)
	if !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Errorf("after InsertAt(1): %v", names)
	}
	sec.InsertAt(-5, NewValued(KindDirective, "front", ""))
	sec.InsertAt(100, NewValued(KindDirective, "back", ""))
	names = childNames(sec)
	if !reflect.DeepEqual(names, []string{"front", "a", "b", "c", "back"}) {
		t.Errorf("after clamped inserts: %v", names)
	}
}

func childNames(n *Node) []string {
	var out []string
	for _, c := range n.Children() {
		out = append(out, c.Name)
	}
	return out
}

func TestRemove(t *testing.T) {
	doc := sampleTree()
	sec := doc.Child(0)
	dir := sec.Child(0)
	dir.Remove()
	if sec.NumChildren() != 1 {
		t.Fatalf("NumChildren = %d, want 1", sec.NumChildren())
	}
	if dir.Parent() != nil {
		t.Error("removed node still has a parent")
	}
	// Removing a root is a no-op.
	doc.Remove()
	if doc.NumChildren() != 2 {
		t.Error("root Remove damaged the tree")
	}
}

func TestIndex(t *testing.T) {
	doc := sampleTree()
	if got := doc.Index(); got != -1 {
		t.Errorf("root Index = %d, want -1", got)
	}
	if got := doc.Child(1).Index(); got != 1 {
		t.Errorf("Index = %d, want 1", got)
	}
}

func TestChildOutOfRange(t *testing.T) {
	doc := sampleTree()
	if doc.Child(-1) != nil || doc.Child(10) != nil {
		t.Error("out-of-range Child should return nil")
	}
}

func TestAttrs(t *testing.T) {
	n := New(KindDirective, "port")
	if _, ok := n.Attr("type"); ok {
		t.Error("Attr on empty map should report absent")
	}
	n.SetAttr("type", "int").SetAttr("min", "1")
	if v, ok := n.Attr("type"); !ok || v != "int" {
		t.Errorf("Attr(type) = %q, %v", v, ok)
	}
	if got := n.AttrDefault("max", "none"); got != "none" {
		t.Errorf("AttrDefault = %q", got)
	}
	if got := n.AttrDefault("min", "none"); got != "1" {
		t.Errorf("AttrDefault existing = %q", got)
	}
	if got := n.AttrKeys(); !reflect.DeepEqual(got, []string{"min", "type"}) {
		t.Errorf("AttrKeys = %v", got)
	}
	n.DelAttr("min")
	if _, ok := n.Attr("min"); ok {
		t.Error("DelAttr did not delete")
	}
	if New(KindWord, "w").AttrKeys() != nil {
		t.Error("AttrKeys on attr-less node should be nil")
	}
}

func TestCloneIndependence(t *testing.T) {
	doc := sampleTree()
	doc.Child(0).SetAttr("open", "true")
	cp := doc.Clone()
	if !doc.Equal(cp) {
		t.Fatal("clone not equal to original")
	}
	if cp.Parent() != nil {
		t.Error("clone has a parent")
	}
	cp.Child(0).Child(0).Value = "9999"
	cp.Child(0).SetAttr("open", "false")
	if doc.Child(0).Child(0).Value != "3306" {
		t.Error("mutating clone affected original value")
	}
	if v, _ := doc.Child(0).Attr("open"); v != "true" {
		t.Error("mutating clone affected original attrs")
	}
	if doc.Equal(cp) {
		t.Error("Equal should detect the mutation")
	}
}

func TestCloneNil(t *testing.T) {
	var n *Node
	if n.Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestEqual(t *testing.T) {
	a := sampleTree()
	tests := []struct {
		name   string
		mutate func(*Node)
	}{
		{"kind", func(n *Node) { n.Child(0).Kind = KindDirective }},
		{"name", func(n *Node) { n.Child(0).Name = "other" }},
		{"value", func(n *Node) { n.Child(0).Child(0).Value = "1" }},
		{"attr added", func(n *Node) { n.SetAttr("k", "v") }},
		{"child removed", func(n *Node) { n.Child(1).Remove() }},
		{"child added", func(n *Node) { n.Append(New(KindSection, "extra")) }},
		{"child reordered", func(n *Node) {
			first := n.Child(0)
			first.Remove()
			n.Append(first)
		}},
	}
	for _, tt := range tests {
		b := a.Clone()
		tt.mutate(b)
		if a.Equal(b) {
			t.Errorf("%s: Equal should be false", tt.name)
		}
	}
	if !a.Equal(a.Clone()) {
		t.Error("tree should equal its clone")
	}
	var nilNode *Node
	if nilNode.Equal(a) || a.Equal(nilNode) {
		t.Error("nil vs non-nil should be unequal")
	}
	if !nilNode.Equal(nil) {
		t.Error("nil vs nil should be equal")
	}
	// Same attr count, different keys.
	x := New(KindWord, "w")
	x.SetAttr("a", "1")
	y := New(KindWord, "w")
	y.SetAttr("b", "1")
	if x.Equal(y) {
		t.Error("different attr keys should be unequal")
	}
}

func TestWalkPreOrderAndPrune(t *testing.T) {
	doc := sampleTree()
	var visited []string
	doc.Walk(func(n *Node) bool {
		visited = append(visited, n.Kind.String()+":"+n.Name)
		return n.Name != "mysqld" // prune below [mysqld]
	})
	want := []string{
		"document:my.cnf", "section:mysqld", "section:mysqldump", "directive:quick",
	}
	if !reflect.DeepEqual(visited, want) {
		t.Errorf("Walk order = %v, want %v", visited, want)
	}
}

func TestWalkAllowsMutation(t *testing.T) {
	doc := sampleTree()
	doc.Walk(func(n *Node) bool {
		if n.Kind == KindDirective {
			n.Remove()
		}
		return true
	})
	if got := doc.CountKind(KindDirective); got != 0 {
		t.Errorf("directives remaining = %d, want 0", got)
	}
	if doc.CountKind(KindSection) != 2 {
		t.Error("sections should survive")
	}
}

func TestWalkNil(t *testing.T) {
	var n *Node
	n.Walk(func(*Node) bool { t.Fatal("visitor called on nil node"); return true })
}

func TestFindAndHelpers(t *testing.T) {
	doc := sampleTree()
	if got := doc.CountKind(KindDirective); got != 3 {
		t.Fatalf("CountKind(directive) = %d, want 3", got)
	}
	if doc.ChildByName("mysqldump") == nil {
		t.Error("ChildByName failed")
	}
	if doc.ChildByName("absent") != nil {
		t.Error("ChildByName should return nil for absent")
	}
	if got := len(doc.ChildrenByKind(KindSection)); got != 2 {
		t.Errorf("ChildrenByKind = %d, want 2", got)
	}
}

func TestStringAndDump(t *testing.T) {
	n := NewValued(KindDirective, "port", "3306").SetAttr("type", "int")
	s := n.String()
	for _, want := range []string{"directive", "name=port", "value=3306", "@type=int"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	d := sampleTree().Dump()
	if !strings.Contains(d, "  section name=mysqld") {
		t.Errorf("Dump missing indented section:\n%s", d)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	s.Put("a.conf", sampleTree())
	s.Put("b.conf", New(KindDocument, "b.conf"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !reflect.DeepEqual(s.Names(), []string{"a.conf", "b.conf"}) {
		t.Errorf("Names = %v", s.Names())
	}
	if s.Get("a.conf") == nil || s.Get("missing") != nil {
		t.Error("Get behaviour wrong")
	}
	// Replacement keeps order.
	s.Put("a.conf", New(KindDocument, "a2"))
	if !reflect.DeepEqual(s.Names(), []string{"a.conf", "b.conf"}) {
		t.Errorf("Names after replace = %v", s.Names())
	}
	var nilSet *Set
	if nilSet.Get("x") != nil {
		t.Error("nil set Get should be nil")
	}
}

func TestSetCloneEqualWalkDump(t *testing.T) {
	s := NewSet()
	s.Put("a.conf", sampleTree())
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c.Get("a.conf").Child(0).Child(0).Value = "1"
	if s.Equal(c) {
		t.Error("Equal should detect tree mutation")
	}
	if s.Get("a.conf").Child(0).Child(0).Value != "3306" {
		t.Error("set Clone shares nodes")
	}
	d := NewSet()
	d.Put("x.conf", sampleTree())
	if s.Equal(d) {
		t.Error("different names should be unequal")
	}
	var visited []string
	s.Walk(func(f string, root *Node) { visited = append(visited, f) })
	if !reflect.DeepEqual(visited, []string{"a.conf"}) {
		t.Errorf("Walk visited %v", visited)
	}
	if !strings.Contains(s.Dump(), "=== a.conf ===") {
		t.Error("Dump missing header")
	}
}

// randomTree builds a random tree for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	kinds := []Kind{KindSection, KindDirective, KindWord, KindLine, KindRecord}
	n := NewValued(kinds[r.Intn(len(kinds))],
		randString(r), randString(r))
	if r.Intn(2) == 0 {
		n.SetAttr(randString(r), randString(r))
	}
	if depth > 0 {
		for i := 0; i < r.Intn(4); i++ {
			n.Append(randomTree(r, depth-1))
		}
	}
	return n
}

func randString(r *rand.Rand) string {
	const alpha = "abcdefgh_0189"
	b := make([]byte, 1+r.Intn(8))
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}

func TestPropertyCloneEqual(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 3)
		cp := tree.Clone()
		return tree.Equal(cp) && cp.Equal(tree)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyParentInvariant(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 3)
		ok := true
		tree.Walk(func(n *Node) bool {
			for _, c := range n.Children() {
				if c.Parent() != n {
					ok = false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
