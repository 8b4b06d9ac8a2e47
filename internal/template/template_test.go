package template

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/scenario"
)

// initialSet builds a two-file configuration set:
//
//	my.cnf:  [mysqld] port=3306 key_buffer_size=16M ; [mysqldump] quick
//	b.conf:  single directive x=1
func initialSet() *confnode.Set {
	doc := confnode.New(confnode.KindDocument, "my.cnf")
	mysqld := confnode.New(confnode.KindSection, "mysqld")
	mysqld.Append(
		confnode.NewValued(confnode.KindDirective, "port", "3306"),
		confnode.NewValued(confnode.KindDirective, "key_buffer_size", "16M"),
	)
	dump := confnode.New(confnode.KindSection, "mysqldump")
	dump.Append(confnode.NewValued(confnode.KindDirective, "quick", ""))
	doc.Append(mysqld, dump)

	b := confnode.New(confnode.KindDocument, "b.conf")
	b.Append(confnode.NewValued(confnode.KindDirective, "x", "1"))

	set := confnode.NewSet()
	set.Put("my.cnf", doc)
	set.Put("b.conf", b)
	return set
}

// generate collects every scenario tpl yields for set.
func generate(tpl Template, set *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(tpl.GenerateStream(set))
}

// named selects the nodes of kind k named name.
func named(k confnode.Kind, name string) func(*confnode.Node) bool {
	return func(n *confnode.Node) bool { return n.Kind == k && n.Name == name }
}

// topDirective selects the directives directly below a file's root.
func topDirective(n *confnode.Node) bool {
	return n.Kind == confnode.KindDirective && n.Parent().Parent() == nil
}

// TestTargetsWalk pins the order targets visits a set in: file by file in
// Set.Walk order (not name order), each file's nodes in pre-order, the
// file root never, and a match nested inside another match kept.
func TestTargetsWalk(t *testing.T) {
	z := confnode.New(confnode.KindSection, "z")
	outer := confnode.New(confnode.KindSection, "outer")
	inner := confnode.New(confnode.KindSection, "inner")
	inner.Append(confnode.New(confnode.KindSection, "innermost"))
	outer.Append(confnode.NewValued(confnode.KindDirective, "d", "1"), inner)
	z.Append(outer, confnode.New(confnode.KindSection, "after"))
	a := confnode.New(confnode.KindSection, "a")
	a.Append(confnode.New(confnode.KindSection, "only"))
	set := confnode.NewSet()
	set.Put("z.conf", z)
	set.Put("a.conf", a)

	var got []string
	for _, tn := range targets(set, OfKind(confnode.KindSection)) {
		if n, err := tn.ref.Resolve(set); err != nil || n != tn.node {
			t.Errorf("ref %v resolves to %v, %v; want %s", tn.ref, n, err, tn.node.Name)
		}
		got = append(got, tn.ref.String()+" "+tn.node.Name)
	}
	want := []string{
		"z.conf#0 outer",
		"z.conf#0.1 inner",
		"z.conf#0.1.0 innermost",
		"z.conf#1 after",
		"a.conf#0 only",
	}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("targets = %q, want %q", got, want)
	}
}

func TestRefRoundTrip(t *testing.T) {
	set := initialSet()
	node := set.Get("my.cnf").Child(0).Child(1)
	ref := RefOf("my.cnf", node)
	got, err := ref.Resolve(set)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if got != node {
		t.Error("Resolve returned wrong node")
	}
	if ref.String() != "my.cnf#0.1" {
		t.Errorf("Ref.String = %q", ref.String())
	}
	parsed, err := ParseRef(ref.String())
	if err != nil {
		t.Fatalf("ParseRef: %v", err)
	}
	if parsed.File != ref.File || len(parsed.Indices) != 2 ||
		parsed.Indices[0] != 0 || parsed.Indices[1] != 1 {
		t.Errorf("ParseRef = %+v, want %+v", parsed, ref)
	}
}

func TestRefResolveErrors(t *testing.T) {
	set := initialSet()
	if _, err := (Ref{File: "nope"}).Resolve(set); !errors.Is(err, scenario.ErrNotApplicable) {
		t.Errorf("missing file: err = %v", err)
	}
	bad := Ref{File: "my.cnf", Indices: []int{0, 99}}
	if _, err := bad.Resolve(set); !errors.Is(err, scenario.ErrNotApplicable) {
		t.Errorf("missing node: err = %v", err)
	}
}

// TestParseRefTable pins the inputs ParseRef accepts and the error it
// gives the rest: Atoi's leading sign and zeros are accepted, negative and
// empty indices are not.
func TestParseRefTable(t *testing.T) {
	for _, tc := range []struct {
		in      string
		file    string
		indices []int
		bad     bool
	}{
		{in: "f#", file: "f"},
		{in: "f#1.2", file: "f", indices: []int{1, 2}},
		{in: "f#+1", file: "f", indices: []int{1}},
		{in: "f#01", file: "f", indices: []int{1}},
		{in: "a.b#0.10.3", file: "a.b", indices: []int{0, 10, 3}},
		{in: "x#y#7", file: "x#y", indices: []int{7}},
		{in: "#4", file: "", indices: []int{4}},
		{in: "f#-1", bad: true},
		{in: "f#1..2", bad: true},
		{in: "f#1.", bad: true},
		{in: "f#.1", bad: true},
		{in: "f#1.x", bad: true},
		{in: "nohash", bad: true},
	} {
		ref, err := ParseRef(tc.in)
		if tc.bad {
			want := fmt.Sprintf("template: malformed ref %q", tc.in)
			if err == nil || err.Error() != want {
				t.Errorf("ParseRef(%q) = %+v, %v; want error %q", tc.in, ref, err, want)
			}
			continue
		}
		if err != nil || ref.File != tc.file || fmt.Sprint(ref.Indices) != fmt.Sprint(tc.indices) {
			t.Errorf("ParseRef(%q) = %+v, %v; want file %q indices %v", tc.in, ref, err, tc.file, tc.indices)
		}
	}
}

// TestResolveOwnedErrors pins ResolveOwned to Resolve's exact errors on
// plain and tracked sets alike.
func TestResolveOwnedErrors(t *testing.T) {
	base := initialSet()
	base.Freeze()
	for _, ref := range []Ref{
		{File: "nope"},
		{File: "nope", Indices: []int{0}},
		{File: "my.cnf", Indices: []int{0, 99}},
		{File: "my.cnf", Indices: []int{5}},
	} {
		for label, set := range map[string]*confnode.Set{"plain": initialSet(), "tracked": base.TrackedInto(nil, nil)} {
			_, want := ref.Resolve(initialSet())
			_, got := ref.ResolveOwned(set)
			if got == nil || got.Error() != want.Error() || !errors.Is(got, scenario.ErrNotApplicable) {
				t.Errorf("%s %v: ResolveOwned err = %v, want %v", label, ref, got, want)
			}
		}
	}
}

// TestResolveOwnedCopiesPath checks that a write through ResolveOwned on a
// tracked set over a frozen base reaches the tracked set only: the
// resolved node is a copy, its siblings are still the base's, and the
// base is unchanged.
func TestResolveOwnedCopiesPath(t *testing.T) {
	base := initialSet()
	base.Freeze()
	snap := base.Clone()
	tr := base.TrackedInto(nil, nil)
	ref := Ref{File: "my.cnf", Indices: []int{0, 1}}
	n, err := ref.ResolveOwned(tr)
	if err != nil {
		t.Fatal(err)
	}
	n.Value = "32M"
	if !base.Equal(snap) {
		t.Fatal("write through ResolveOwned reached the base")
	}
	dirty := tr.SealAppend(nil)
	if len(dirty) != 1 || dirty[0] != "my.cnf" {
		t.Fatalf("dirty = %v, want [my.cnf]", dirty)
	}
	root, baseRoot := tr.Get("my.cnf"), base.Get("my.cnf")
	if root.Child(1) != baseRoot.Child(1) || root.Child(0).Child(0) != baseRoot.Child(0).Child(0) {
		t.Error("siblings off the path were copied")
	}
	if got, err := ref.Resolve(tr); err != nil || got.Value != "32M" {
		t.Errorf("tracked node = %v, %v; want the write", got, err)
	}
}

func TestDeleteTemplate(t *testing.T) {
	set := initialSet()
	tpl := &DeleteTemplate{Targets: OfKind(confnode.KindDirective)}
	scens, err := generate(tpl, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 4 {
		t.Fatalf("generated %d scenarios, want 4", len(scens))
	}
	// Apply the first (deletes port from a clone).
	clone := set.Clone()
	if err := scens[0].Apply(clone); err != nil {
		t.Fatal(err)
	}
	if clone.Get("my.cnf").Child(0).NumChildren() != 1 {
		t.Error("delete did not remove the directive")
	}
	// Original untouched.
	if set.Get("my.cnf").Child(0).NumChildren() != 2 {
		t.Error("original was mutated")
	}
	if scens[0].Class != "delete" {
		t.Errorf("Class = %q", scens[0].Class)
	}
	if !strings.Contains(scens[0].Description, "port") {
		t.Errorf("Description = %q", scens[0].Description)
	}
}

func TestDeleteTemplateCustomClass(t *testing.T) {
	set := initialSet()
	tpl := &DeleteTemplate{Targets: OfKind(confnode.KindSection), Class: "structural/omission"}
	scens, _ := generate(tpl, set)
	if len(scens) != 2 {
		t.Fatalf("got %d scenarios", len(scens))
	}
	if scens[0].Class != "structural/omission" {
		t.Errorf("Class = %q", scens[0].Class)
	}
}

func TestDeleteRootNotApplicable(t *testing.T) {
	set := initialSet()
	tpl := &DeleteTemplate{Targets: topDirective}
	scens, _ := generate(tpl, set)
	// b.conf's directive x — delete works.
	if len(scens) != 1 {
		t.Fatalf("got %d scenarios", len(scens))
	}
	// Now delete the node's parent first so Apply hits a stale ref.
	clone := set.Clone()
	clone.Get("b.conf").Child(0).Remove()
	if err := scens[0].Apply(clone); !errors.Is(err, scenario.ErrNotApplicable) {
		t.Errorf("stale ref: err = %v", err)
	}
}

func TestDuplicateTemplate(t *testing.T) {
	set := initialSet()
	tpl := &DuplicateTemplate{Targets: named(confnode.KindDirective, "port")}
	scens, err := generate(tpl, set)
	if err != nil || len(scens) != 1 {
		t.Fatalf("scens=%d err=%v", len(scens), err)
	}
	clone := set.Clone()
	if err := scens[0].Apply(clone); err != nil {
		t.Fatal(err)
	}
	sec := clone.Get("my.cnf").Child(0)
	if sec.NumChildren() != 3 {
		t.Fatalf("children = %d, want 3", sec.NumChildren())
	}
	if sec.Child(0).Name != "port" || sec.Child(1).Name != "port" {
		t.Error("duplicate not adjacent to original")
	}
	if sec.Child(0) == sec.Child(1) {
		t.Error("duplicate shares node with original")
	}
}

func TestMoveTemplate(t *testing.T) {
	set := initialSet()
	tpl := &MoveTemplate{
		Targets:      named(confnode.KindDirective, "port"),
		Destinations: OfKind(confnode.KindSection),
	}
	scens, err := generate(tpl, set)
	if err != nil {
		t.Fatal(err)
	}
	// port can move only to [mysqldump] (its own parent is excluded).
	if len(scens) != 1 {
		t.Fatalf("scenarios = %d, want 1", len(scens))
	}
	clone := set.Clone()
	if err := scens[0].Apply(clone); err != nil {
		t.Fatal(err)
	}
	mysqld := clone.Get("my.cnf").Child(0)
	dump := clone.Get("my.cnf").Child(1)
	if mysqld.NumChildren() != 1 {
		t.Error("port not removed from [mysqld]")
	}
	if dump.NumChildren() != 2 || dump.Child(1).Name != "port" {
		t.Error("port not appended to [mysqldump]")
	}
}

func TestMoveTemplateExcludesSelfAndDescendants(t *testing.T) {
	// Nested sections: moving an outer section into its own child must be
	// excluded.
	doc := confnode.New(confnode.KindDocument, "a")
	outer := confnode.New(confnode.KindSection, "outer")
	inner := confnode.New(confnode.KindSection, "inner")
	outer.Append(inner)
	doc.Append(outer)
	set := confnode.NewSet()
	set.Put("a", doc)

	tpl := &MoveTemplate{
		Targets:      named(confnode.KindSection, "outer"),
		Destinations: OfKind(confnode.KindSection),
	}
	scens, err := generate(tpl, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 0 {
		t.Errorf("generated %d scenarios, want 0 (self and descendant destinations excluded)", len(scens))
	}
}

func TestMoveCrossFile(t *testing.T) {
	set := initialSet()
	tpl := &MoveTemplate{
		Targets:      named(confnode.KindDirective, "x"),
		Destinations: named(confnode.KindSection, "mysqld"),
	}
	scens, err := generate(tpl, set)
	if err != nil || len(scens) != 1 {
		t.Fatalf("scens=%d err=%v", len(scens), err)
	}
	clone := set.Clone()
	if err := scens[0].Apply(clone); err != nil {
		t.Fatal(err)
	}
	if clone.Get("b.conf").NumChildren() != 0 {
		t.Error("x not removed from b.conf")
	}
	sec := clone.Get("my.cnf").Child(0)
	if sec.Child(sec.NumChildren()-1).Name != "x" {
		t.Error("x not moved into [mysqld]")
	}
}

type upperMutator struct{}

func (upperMutator) Name() string { return "upper" }

func (upperMutator) Enumerate(n *confnode.Node) (int, func(int) Variant) {
	if n.Value == "" {
		return 0, nil
	}
	return 1, func(int) Variant {
		return Variant{
			Description: "uppercase value",
			Apply:       func(m *confnode.Node) { m.Value = strings.ToUpper(m.Value) },
		}
	}
}

func TestModifyTemplate(t *testing.T) {
	set := initialSet()
	tpl := &ModifyTemplate{
		Targets: OfKind(confnode.KindDirective),
		Mutator: upperMutator{},
	}
	scens, err := generate(tpl, set)
	if err != nil {
		t.Fatal(err)
	}
	// 3 directives have values (quick has none).
	if len(scens) != 3 {
		t.Fatalf("scenarios = %d, want 3", len(scens))
	}
	if tpl.Name() != "modify/upper" {
		t.Errorf("Name = %q", tpl.Name())
	}
	clone := set.Clone()
	if err := scens[1].Apply(clone); err != nil {
		t.Fatal(err)
	}
	if got := clone.Get("my.cnf").Child(0).Child(1).Value; got != "16M" {
		t.Errorf("value = %q, want 16M (already upper)", got)
	}
	if err := scens[0].Apply(clone); err != nil {
		t.Fatal(err)
	}
	if scens[0].Class != "modify/upper" {
		t.Errorf("Class = %q", scens[0].Class)
	}
}

func TestUnionTemplate(t *testing.T) {
	set := initialSet()
	u := &UnionTemplate{Parts: []Template{
		&DeleteTemplate{Targets: OfKind(confnode.KindSection)},
		&DuplicateTemplate{Targets: OfKind(confnode.KindSection)},
	}}
	scens, err := generate(u, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(scens))
	}
	if u.Name() != "union" {
		t.Errorf("Name = %q", u.Name())
	}
	classes := map[string]int{}
	for _, s := range scens {
		classes[s.Class]++
	}
	if classes["delete"] != 2 || classes["duplicate"] != 2 {
		t.Errorf("classes = %v", classes)
	}
}

type errTemplate struct{}

func (errTemplate) Name() string { return "boom" }
func (errTemplate) GenerateStream(*confnode.Set) scenario.Source {
	return scenario.Fail(fmt.Errorf("boom"))
}

func TestUnionTemplatePropagatesError(t *testing.T) {
	u := &UnionTemplate{Parts: []Template{errTemplate{}}}
	if _, err := generate(u, initialSet()); err == nil {
		t.Error("expected error from failing part")
	}
}

func TestScenarioIDsUnique(t *testing.T) {
	set := initialSet()
	u := &UnionTemplate{Parts: []Template{
		&DeleteTemplate{Targets: OfKind(confnode.KindDirective)},
		&DuplicateTemplate{Targets: OfKind(confnode.KindDirective)},
		&ModifyTemplate{Targets: OfKind(confnode.KindDirective), Mutator: upperMutator{}},
	}}
	scens, err := generate(u, set)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range scens {
		if err := s.Validate(); err != nil {
			t.Errorf("invalid scenario: %v", err)
		}
		if seen[s.ID] {
			t.Errorf("duplicate scenario ID %q", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestApplyIsReplayable(t *testing.T) {
	// The same scenario applied to two fresh clones must produce equal
	// results — the engine depends on replayability.
	set := initialSet()
	tpl := &DeleteTemplate{Targets: OfKind(confnode.KindDirective)}
	scens, _ := generate(tpl, set)
	for _, s := range scens {
		a, b := set.Clone(), set.Clone()
		if err := s.Apply(a); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("scenario %s not replayable", s.ID)
		}
	}
}

func TestDescribeTruncatesLongValues(t *testing.T) {
	long := strings.Repeat("x", 100)
	n := confnode.NewValued(confnode.KindDirective, "d", long)
	d := describe("", n)
	if len(d) > 80 {
		t.Errorf("describe too long: %d chars", len(d))
	}
	if !strings.Contains(d, "...") {
		t.Errorf("describe should truncate: %q", d)
	}
}

// fmtRef is Ref.String's historical fmt rendering, the form every
// published scenario ID embeds.
func fmtRef(r Ref) string {
	parts := make([]string, 0, len(r.Indices))
	for _, i := range r.Indices {
		parts = append(parts, fmt.Sprint(i))
	}
	return r.File + "#" + strings.Join(parts, ".")
}

// TestScenarioStringsMatchFmt pins scenario IDs, descriptions and ref
// strings to their historical fmt forms, a root ref with no indices
// included.
func TestScenarioStringsMatchFmt(t *testing.T) {
	set := initialSet()
	for _, r := range []Ref{
		RefOf("my.cnf", set.Get("my.cnf")),
		{File: "a#b.conf"},
		{File: "my.cnf", Indices: []int{0}},
		{File: "my.cnf", Indices: []int{12, 0, 345}},
	} {
		if got, want := r.String(), fmtRef(r); got != want {
			t.Errorf("Ref%v.String() = %q, want %q", r.Indices, got, want)
		}
	}
	if got := (Ref{File: "my.cnf"}).String(); got != "my.cnf#" {
		t.Errorf("root ref = %q, want %q", got, "my.cnf#")
	}

	expr := func(*confnode.Node) bool { return true }
	tgts := targets(set, expr)
	check := func(name string, tpl Template, want func(seq int, tn refNode, v *Variant) (string, string)) {
		t.Helper()
		scens, err := generate(tpl, set)
		if err != nil {
			t.Fatal(err)
		}
		seq := 0
		for _, tn := range tgts {
			vs := []Variant{{}}
			if m, ok := tpl.(*ModifyTemplate); ok {
				vs = Variants(m.Mutator, tn.node)
			}
			for k := range vs {
				if seq >= len(scens) {
					t.Fatalf("%s: %d scenarios, want more", name, len(scens))
				}
				id, desc := want(seq, tn, &vs[k])
				if sc := scens[seq]; sc.ID != id || sc.Description != desc {
					t.Errorf("%s #%d = %q %q, want %q %q", name, seq, sc.ID, sc.Description, id, desc)
				}
				seq++
			}
		}
		if seq != len(scens) || seq == 0 {
			t.Errorf("%s: %d scenarios, want %d", name, len(scens), seq)
		}
	}
	check("delete", &DeleteTemplate{Targets: expr}, func(i int, tn refNode, _ *Variant) (string, string) {
		return fmt.Sprintf("%s/%s/%d", "delete", fmtRef(tn.ref), i), "delete " + describe("", tn.node)
	})
	check("duplicate", &DuplicateTemplate{Targets: expr, Class: "structural/dup"}, func(i int, tn refNode, _ *Variant) (string, string) {
		return fmt.Sprintf("%s/%s/%d", "structural/dup", fmtRef(tn.ref), i), "duplicate " + describe("", tn.node)
	})
	check("modify", &ModifyTemplate{Targets: expr, Mutator: upperMutator{}}, func(seq int, tn refNode, v *Variant) (string, string) {
		return fmt.Sprintf("%s/%s/%d", "modify/upper", fmtRef(tn.ref), seq),
			fmt.Sprintf("%s on %s", v.Description, describe("", tn.node))
	})
}
