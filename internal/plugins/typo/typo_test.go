package typo

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"conferr/internal/confnode"
	"conferr/internal/keyboard"
	"conferr/internal/scenario"
	"conferr/internal/template"
	"conferr/internal/view"
)

func word(v string) *confnode.Node {
	n := confnode.NewValued(confnode.KindWord, "", v)
	n.SetAttr(view.TokenAttr, view.TokenValue)
	return n
}

func applyAll(t *testing.T, m template.Mutator, in string) []string {
	t.Helper()
	var out []string
	for _, v := range m.Variants(word(in)) {
		n := word(in)
		v.Apply(n)
		out = append(out, n.Value)
	}
	return out
}

func TestOmission(t *testing.T) {
	got := applyAll(t, Omission{}, "port")
	want := []string{"ort", "prt", "pot", "por"}
	if len(got) != len(want) {
		t.Fatalf("variants = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("variant %d = %q, want %q", i, got[i], want[i])
		}
	}
	if applyAll(t, Omission{}, "") != nil {
		t.Error("empty token should have no omission variants")
	}
}

func TestInsertionUsesNeighbors(t *testing.T) {
	layout := keyboard.USQwerty()
	variants := applyAll(t, Insertion{Layout: layout}, "ab")
	if len(variants) == 0 {
		t.Fatal("no insertion variants")
	}
	for _, v := range variants {
		if utf8.RuneCountInString(v) != 3 {
			t.Errorf("insertion %q should lengthen by exactly 1", v)
		}
		if strings.Contains(v, " ") {
			t.Errorf("insertion %q introduced a space", v)
		}
	}
	// Inserting before 'a' must use a's neighbors.
	nbs := map[rune]bool{}
	for _, r := range layout.Neighbors('a') {
		nbs[r] = true
	}
	foundNb := false
	for _, v := range variants {
		rs := []rune(v)
		if rs[1] == 'a' && rs[2] == 'b' && nbs[rs[0]] {
			foundNb = true
		}
	}
	if !foundNb {
		t.Error("no variant inserted an 'a'-neighbor before position 0")
	}
}

func TestSubstitutionUsesNeighbors(t *testing.T) {
	layout := keyboard.USQwerty()
	variants := applyAll(t, Substitution{Layout: layout}, "s")
	if len(variants) == 0 {
		t.Fatal("no substitution variants")
	}
	allowed := map[string]bool{}
	for _, r := range layout.Neighbors('s') {
		allowed[string(r)] = true
	}
	for _, v := range variants {
		if !allowed[v] {
			t.Errorf("substitution %q is not a keyboard neighbor of 's'", v)
		}
	}
}

func TestSubstitutionDigitsCanBecomeLetters(t *testing.T) {
	// Load-bearing for Figure 3: typos in numeric values must sometimes
	// produce non-numeric strings (detected by Postgres, ignored by MySQL).
	variants := applyAll(t, Substitution{}, "8")
	hasLetter, hasDigit := false, false
	for _, v := range variants {
		r := []rune(v)[0]
		if r >= 'a' && r <= 'z' {
			hasLetter = true
		}
		if r >= '0' && r <= '9' {
			hasDigit = true
		}
	}
	if !hasLetter || !hasDigit {
		t.Errorf("substituting '8' should yield both letters and digits: %v", variants)
	}
}

func TestCaseAlteration(t *testing.T) {
	got := applyAll(t, CaseAlteration{}, "Ab")
	// pair (0,1): toggle both -> "aB"
	if len(got) != 1 || got[0] != "aB" {
		t.Errorf("variants = %v, want [aB]", got)
	}
	if got := applyAll(t, CaseAlteration{}, "12"); got != nil {
		t.Errorf("caseless token should have no variants: %v", got)
	}
	got = applyAll(t, CaseAlteration{}, "aB1")
	if len(got) != 2 {
		t.Errorf("variants = %v", got)
	}
}

func TestTransposition(t *testing.T) {
	got := applyAll(t, Transposition{}, "abc")
	want := []string{"bac", "acb"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("variants = %v, want %v", got, want)
	}
	// Equal adjacent chars are skipped.
	if got := applyAll(t, Transposition{}, "aab"); len(got) != 1 || got[0] != "aba" {
		t.Errorf("variants = %v, want [aba]", got)
	}
	if applyAll(t, Transposition{}, "x") != nil {
		t.Error("single char cannot transpose")
	}
}

func TestMutatorNames(t *testing.T) {
	names := map[string]template.Mutator{
		"omission":      Omission{},
		"insertion":     Insertion{},
		"substitution":  Substitution{},
		"case":          CaseAlteration{},
		"transposition": Transposition{},
	}
	for want, m := range names {
		if m.Name() != want {
			t.Errorf("Name = %q, want %q", m.Name(), want)
		}
	}
}

// wordSet builds a word-view set with one line: name token "port", value
// token "3306".
func wordSet() *confnode.Set {
	doc := confnode.New(confnode.KindDocument, "f.conf")
	line := confnode.New(confnode.KindLine, "")
	line.SetAttr(view.SrcAttr, "f.conf#0")
	name := confnode.NewValued(confnode.KindWord, "", "port")
	name.SetAttr(view.TokenAttr, view.TokenName)
	val := confnode.NewValued(confnode.KindWord, "", "3306")
	val.SetAttr(view.TokenAttr, view.TokenValue)
	line.Append(name, val)
	doc.Append(line)
	set := confnode.NewSet()
	set.Put("f.conf", doc)
	return set
}

func TestPluginGenerateAllModels(t *testing.T) {
	p := &Plugin{}
	scens, err := p.Generate(wordSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) == 0 {
		t.Fatal("no scenarios")
	}
	classes := map[string]int{}
	for _, s := range scens {
		classes[s.Class]++
		if err := s.Validate(); err != nil {
			t.Errorf("invalid scenario: %v", err)
		}
	}
	// "port"/"3306" support omission, insertion, substitution,
	// transposition; case alteration applies to "port" (letters).
	for _, c := range []string{
		"typo/omission", "typo/insertion", "typo/substitution",
		"typo/case", "typo/transposition",
	} {
		if classes[c] == 0 {
			t.Errorf("no scenarios for class %s (classes=%v)", c, classes)
		}
	}
	if p.Name() != "typo" {
		t.Errorf("plugin name = %q", p.Name())
	}
	if p.View().Name() != "word" {
		t.Errorf("plugin view = %q", p.View().Name())
	}
}

func TestPluginTokenRestriction(t *testing.T) {
	p := &Plugin{Tokens: []string{view.TokenName}}
	scens, err := p.Generate(wordSet())
	if err != nil {
		t.Fatal(err)
	}
	set := wordSet()
	for _, s := range scens {
		clone := set.Clone()
		if err := s.Apply(clone); err != nil {
			t.Fatal(err)
		}
		// The value token must never change.
		if got := clone.Get("f.conf").Child(0).Child(1).Value; got != "3306" {
			t.Errorf("scenario %s modified a value token: %q", s.ID, got)
		}
	}
}

func TestPluginPerModelSampling(t *testing.T) {
	p := &Plugin{PerModel: 2, Seed: 1}
	scens, err := p.Generate(wordSet())
	if err != nil {
		t.Fatal(err)
	}
	byClass := scenario.ByClass(scens)
	for class, s := range byClass {
		if len(s) > 2 {
			t.Errorf("class %s has %d scenarios, want <= 2", class, len(s))
		}
	}
	// The zero Seed is valid: sampling works without an explicit seed.
	if _, err := (&Plugin{PerModel: 1}).Generate(wordSet()); err != nil {
		t.Errorf("zero-seed PerModel sampling failed: %v", err)
	}
}

func TestPluginDeterministicWithSeed(t *testing.T) {
	gen := func() []string {
		p := &Plugin{PerModel: 3, Seed: 99}
		scens, err := p.Generate(wordSet())
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, s := range scens {
			ids = append(ids, s.ID)
		}
		return ids
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("IDs differ at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestPluginModelsOverride(t *testing.T) {
	p := &Plugin{Models: []template.Mutator{Omission{}}}
	scens, err := p.Generate(wordSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scens {
		if s.Class != "typo/omission" {
			t.Errorf("unexpected class %s", s.Class)
		}
	}
}

// Properties of the submodels, per paper §2.1.

func TestPropertyOmissionShortensByOne(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		for _, v := range (Omission{}).Variants(word(s)) {
			n := word(s)
			v.Apply(n)
			if utf8.RuneCountInString(n.Value) != utf8.RuneCountInString(s)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// transpositionAt returns s's transposition variant that swaps the rune
// at pos with its successor. Variants skips equal adjacent runes, so a
// variant's index in the slice does not name its position.
func transpositionAt(s string, pos int) (template.Variant, bool) {
	prefix := fmt.Sprintf("transpose %d/", pos)
	for _, v := range (Transposition{}).Variants(word(s)) {
		if strings.HasPrefix(v.Description, prefix) {
			return v, true
		}
	}
	return template.Variant{}, false
}

// transpositionInvolutes reports whether each transposition of s,
// applied again at the same position to its own result, restores s.
func transpositionInvolutes(s string) bool {
	for _, v := range (Transposition{}).Variants(word(s)) {
		var pos int
		if _, err := fmt.Sscanf(v.Description, "transpose %d/", &pos); err != nil {
			return false
		}
		n := word(s)
		v.Apply(n)
		back, ok := transpositionAt(n.Value, pos)
		if !ok {
			return false
		}
		n2 := word(n.Value)
		back.Apply(n2)
		if n2.Value != s {
			return false
		}
	}
	return true
}

func TestPropertyTranspositionIsInvolution(t *testing.T) {
	// Applying the same transposition twice restores the original.
	// "abaxy" swapped at 1 gives "aabxy", whose variant at index 1
	// swaps positions 2/3: pairing by index would fail it.
	if !transpositionInvolutes("abaxy") {
		t.Error(`transposition of "abaxy" is not an involution`)
	}
	f := func(s string) bool {
		return !utf8.ValidString(s) || transpositionInvolutes(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyVariantsNeverEqualOriginal(t *testing.T) {
	models := []template.Mutator{
		Omission{}, Insertion{}, Substitution{}, CaseAlteration{}, Transposition{},
	}
	f := func(s string) bool {
		if !utf8.ValidString(s) || strings.ContainsRune(s, 0) {
			return true
		}
		for _, m := range models {
			for _, v := range m.Variants(word(s)) {
				n := word(s)
				v.Apply(n)
				if n.Value == s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCasePreservesLength(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		for _, v := range (CaseAlteration{}).Variants(word(s)) {
			n := word(s)
			v.Apply(n)
			if utf8.RuneCountInString(n.Value) != utf8.RuneCountInString(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDirectiveKey(t *testing.T) {
	cases := []struct{ id, want string }{
		{"typo/substitution/f.conf#0.1/5", "f.conf#0"},
		{"typo/omission/my.cnf#12.0/0", "my.cnf#12"},
		{"typo/case/a#3.2", "a#3"},
		{"no-ref-here", ""},
	}
	for _, tt := range cases {
		if got := DirectiveKey(tt.id); got != tt.want {
			t.Errorf("DirectiveKey(%q) = %q, want %q", tt.id, got, tt.want)
		}
	}
}

func TestPerDirectiveSampling(t *testing.T) {
	// Two lines; cap at 3 scenarios per line across all submodels.
	doc := confnode.New(confnode.KindDocument, "f.conf")
	for i, kv := range [][2]string{{"port", "3306"}, {"host", "localhost"}} {
		line := confnode.New(confnode.KindLine, "")
		line.SetAttr(view.SrcAttr, fmt.Sprintf("f.conf#%d", i))
		name := confnode.NewValued(confnode.KindWord, "", kv[0])
		name.SetAttr(view.TokenAttr, view.TokenName)
		val := confnode.NewValued(confnode.KindWord, "", kv[1])
		val.SetAttr(view.TokenAttr, view.TokenValue)
		line.Append(name, val)
		doc.Append(line)
	}
	set := confnode.NewSet()
	set.Put("f.conf", doc)

	p := &Plugin{PerDirective: 3, Seed: 5}
	scens, err := p.Generate(set)
	if err != nil {
		t.Fatal(err)
	}
	perLine := map[string]int{}
	for _, s := range scens {
		perLine[DirectiveKey(s.ID)]++
	}
	if len(perLine) != 2 {
		t.Fatalf("lines = %v", perLine)
	}
	for key, n := range perLine {
		if n != 3 {
			t.Errorf("line %s has %d scenarios, want 3", key, n)
		}
	}
	// The zero Seed is valid: sampling works without an explicit seed.
	if _, err := (&Plugin{PerDirective: 1}).Generate(set); err != nil {
		t.Errorf("zero-seed PerDirective sampling failed: %v", err)
	}
}
