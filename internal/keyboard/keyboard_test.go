package keyboard

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// Name returns the layout's name.
func (l *Layout) Name() string { return l.name }

// Contains reports whether the layout can produce the rune.
func (l *Layout) Contains(r rune) bool {
	_, ok := l.index[r]
	return ok
}

// KeyFor returns the key and modifier that produce the rune.
func (l *Layout) KeyFor(r rune) (Key, Modifier, bool) {
	ref, ok := l.index[r]
	if !ok {
		return Key{}, ModNone, false
	}
	return l.keys[ref.key], ref.mod, true
}

// Runes returns every rune the layout can produce, sorted.
func (l *Layout) Runes() []rune {
	out := make([]rune, 0, len(l.index))
	for r := range l.index {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestUSQwertyContains(t *testing.T) {
	l := USQwerty()
	for _, r := range "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 `~!@#$%^&*()-_=+[]{}\\|;:'\",<.>/?" {
		if !l.Contains(r) {
			t.Errorf("US layout missing %q", r)
		}
	}
	if l.Contains('ü') {
		t.Error("US layout should not contain ü")
	}
	if l.Name() != "us-qwerty" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestSwissGermanContains(t *testing.T) {
	l := SwissGerman()
	for _, r := range "abcdefghijklmnopqrstuvwxyz0123456789üöäèéà çZ" {
		if !l.Contains(r) {
			t.Errorf("Swiss layout missing %q", r)
		}
	}
	// QWERTZ: z and y swapped relative to QWERTY.
	zKey, _, _ := l.KeyFor('z')
	yKey, _, _ := l.KeyFor('y')
	if zKey.Y != 1 || yKey.Y != 3 {
		t.Errorf("QWERTZ rows wrong: z row %v, y row %v", zKey.Y, yKey.Y)
	}
}

func TestKeyFor(t *testing.T) {
	l := USQwerty()
	k, mod, ok := l.KeyFor('a')
	if !ok || mod != ModNone || k.Base != 'a' {
		t.Errorf("KeyFor(a) = %v, %v, %v", k, mod, ok)
	}
	k2, mod2, ok2 := l.KeyFor('A')
	if !ok2 || mod2 != ModShift || k2.Shift != 'A' {
		t.Errorf("KeyFor(A) = %v, %v, %v", k2, mod2, ok2)
	}
	if k != k2 {
		t.Error("a and A should be on the same key")
	}
	if _, _, ok := l.KeyFor('€'); ok {
		t.Error("KeyFor(€) should fail")
	}
}

func TestKeyRune(t *testing.T) {
	k := Key{Base: 'a', Shift: 'A'}
	if r, ok := k.Rune(ModNone); !ok || r != 'a' {
		t.Errorf("Rune(none) = %q, %v", r, ok)
	}
	if r, ok := k.Rune(ModShift); !ok || r != 'A' {
		t.Errorf("Rune(shift) = %q, %v", r, ok)
	}
	sp := Key{Base: ' '}
	if _, ok := sp.Rune(ModShift); ok {
		t.Error("space shifted should produce nothing")
	}
}

func neighborSet(l *Layout, r rune) map[rune]bool {
	out := map[rune]bool{}
	for _, n := range l.Neighbors(r) {
		out[n] = true
	}
	return out
}

func TestNeighborsGeometry(t *testing.T) {
	l := USQwerty()
	tests := []struct {
		r       rune
		include []rune
		exclude []rune
	}{
		{'s', []rune{'a', 'd', 'w', 'e', 'x', 'z'}, []rune{'s', 'f', 'q', 'r', '2'}},
		{'5', []rune{'4', '6', 'r', 't'}, []rune{'5', 'e', 'y', 'f'}},
		{'S', []rune{'A', 'D', 'W', 'E', 'X', 'Z'}, []rune{'s', 'a', 'F'}},
		{'!', []rune{'~', '@', 'Q'}, []rune{'1', '#', 'W'}},
		{'q', []rune{'w', 'a', '1', '2'}, []rune{'e', 's', 'z'}},
	}
	for _, tt := range tests {
		got := neighborSet(l, tt.r)
		for _, want := range tt.include {
			if !got[want] {
				t.Errorf("Neighbors(%q) missing %q (got %q)", tt.r, want, l.Neighbors(tt.r))
			}
		}
		for _, not := range tt.exclude {
			if got[not] {
				t.Errorf("Neighbors(%q) wrongly includes %q", tt.r, not)
			}
		}
	}
}

func TestNeighborsSortedByDistance(t *testing.T) {
	l := USQwerty()
	n := l.Neighbors('g')
	if len(n) < 4 {
		t.Fatalf("Neighbors(g) = %q, too few", n)
	}
	// f and h are exactly 1 unit away; they must precede diagonals.
	firstTwo := map[rune]bool{n[0]: true, n[1]: true}
	if !firstTwo['f'] || !firstTwo['h'] {
		t.Errorf("nearest neighbors of g should be f,h; got %q", n[:2])
	}
}

func TestNeighborsUnknownRune(t *testing.T) {
	if USQwerty().Neighbors('€') != nil {
		t.Error("Neighbors of unknown rune should be nil")
	}
}

func TestNeighborsDeterministic(t *testing.T) {
	l := USQwerty()
	a := l.Neighbors('k')
	b := l.Neighbors('k')
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("order not deterministic")
		}
	}
}

func TestRunes(t *testing.T) {
	l := USQwerty()
	rs := l.Runes()
	if len(rs) < 90 {
		t.Errorf("US layout produces %d runes, expected >= 90", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i-1] >= rs[i] {
			t.Fatal("Runes not sorted/unique")
		}
	}
}

func TestDefaultIsUS(t *testing.T) {
	if Default().Name() != "us-qwerty" {
		t.Error("Default should be US QWERTY")
	}
}

// Property: neighborhood is symmetric for same-modifier pairs — if b is a
// neighbor of a then a is a neighbor of b.
func TestPropertyNeighborSymmetry(t *testing.T) {
	for _, l := range []*Layout{USQwerty(), SwissGerman()} {
		for _, a := range l.Runes() {
			for _, b := range l.Neighbors(a) {
				_, amod, _ := l.KeyFor(a)
				_, bmod, _ := l.KeyFor(b)
				if amod != bmod {
					t.Errorf("%s: neighbor %q of %q has different modifier", l.Name(), b, a)
					continue
				}
				found := false
				for _, back := range l.Neighbors(b) {
					if back == a {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: %q in Neighbors(%q) but not vice versa", l.Name(), b, a)
				}
			}
		}
	}
}

// Property: neighbors never include the rune itself and are unique.
func TestPropertyNeighborsProper(t *testing.T) {
	l := USQwerty()
	runes := l.Runes()
	f := func(idx uint16) bool {
		r := runes[int(idx)%len(runes)]
		seen := map[rune]bool{}
		for _, n := range l.Neighbors(r) {
			if n == r || seen[n] {
				return false
			}
			seen[n] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// neighborsByScan is Neighbors computed on each call, straight from the
// key geometry: the reference the precomputed table must match.
func neighborsByScan(l *Layout, r rune) []rune {
	_, mod, ok := l.KeyFor(r)
	if !ok {
		return nil
	}
	ref := l.index[r]
	origin := l.keys[ref.key]
	type cand struct {
		r    rune
		dist float64
	}
	var cands []cand
	for i, k := range l.keys {
		if i == ref.key {
			continue
		}
		if d := dist(origin, k); d <= neighborThreshold {
			if nr, ok := k.Rune(mod); ok {
				cands = append(cands, cand{nr, d})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].r < cands[j].r
	})
	out := make([]rune, len(cands))
	for i, c := range cands {
		out[i] = c.r
	}
	return out
}

// TestNeighborTableMatchesScan: the table NewLayout builds holds, for
// every rune of both built-in layouts, exactly what a scan of the key
// geometry computes, and a lookup allocates nothing.
func TestNeighborTableMatchesScan(t *testing.T) {
	for _, l := range []*Layout{USQwerty(), SwissGerman()} {
		for _, r := range l.Runes() {
			got, want := l.Neighbors(r), neighborsByScan(l, r)
			if !slices.Equal(got, want) {
				t.Errorf("%s: Neighbors(%q) = %q, want %q", l.Name(), r, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { l.Neighbors('g') }); allocs != 0 {
			t.Errorf("%s: Neighbors allocates %.1f times, want 0", l.Name(), allocs)
		}
	}
	if Default() != Default() {
		t.Error("Default builds a new layout per call, want one shared layout")
	}
}
