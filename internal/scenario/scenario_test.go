package scenario

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"conferr/internal/confnode"
)

func mkScenarios(n int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		out[i] = Scenario{
			ID:    string(rune('a' + i)),
			Class: map[bool]string{true: "even", false: "odd"}[i%2 == 0],
			Apply: func(*confnode.Set) error { return nil },
		}
	}
	return out
}

func ids(s []Scenario) []string {
	var out []string
	for _, x := range s {
		out = append(out, x.ID)
	}
	return out
}

func TestValidate(t *testing.T) {
	good := Scenario{ID: "x", Class: "c", Apply: func(*confnode.Set) error { return nil }}
	if err := good.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	if err := (Scenario{Class: "c", Apply: good.Apply}).Validate(); err == nil {
		t.Error("empty ID accepted")
	}
	if err := (Scenario{ID: "x", Class: "c"}).Validate(); err == nil {
		t.Error("nil Apply accepted")
	}
	// An empty Class would silently become a "" bucket in every per-class
	// profile table; it must be rejected instead.
	if err := (Scenario{ID: "x", Apply: good.Apply}).Validate(); err == nil {
		t.Error("empty Class accepted")
	}
}

func TestRandomSubset(t *testing.T) {
	s := mkScenarios(10)
	rng := rand.New(rand.NewSource(42))
	sub := RandomSubset(rng, s, 4)
	if len(sub) != 4 {
		t.Fatalf("len = %d, want 4", len(sub))
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, x := range sub {
		if seen[x.ID] {
			t.Fatalf("duplicate %s", x.ID)
		}
		seen[x.ID] = true
	}
	// n >= len returns everything, original order.
	all := RandomSubset(rng, s, 100)
	if !reflect.DeepEqual(ids(all), ids(s)) {
		t.Error("oversized subset should be a copy of the input")
	}
	// Negative n is empty.
	if got := RandomSubset(rng, s, -1); len(got) != 0 {
		t.Errorf("negative n returned %d", len(got))
	}
	// Original slice unmodified.
	if !reflect.DeepEqual(ids(s), []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}) {
		t.Error("RandomSubset mutated its input")
	}
}

func TestRandomSubsetDeterministic(t *testing.T) {
	s := mkScenarios(10)
	a := RandomSubset(rand.New(rand.NewSource(7)), s, 5)
	b := RandomSubset(rand.New(rand.NewSource(7)), s, 5)
	if !reflect.DeepEqual(ids(a), ids(b)) {
		t.Error("same seed should give same subset")
	}
}

func TestByClass(t *testing.T) {
	s := mkScenarios(4)
	g := ByClass(s)
	if len(g) != 2 || len(g["even"]) != 2 || len(g["odd"]) != 2 {
		t.Errorf("ByClass = %v", g)
	}
}

func TestPropertySubsetSizeAndMembership(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		s := mkScenarios(12)
		n := int(nRaw % 15)
		sub := RandomSubset(rand.New(rand.NewSource(seed)), s, n)
		if n <= 12 && len(sub) != n && !(n > 12 && len(sub) == 12) {
			if len(sub) != min(n, 12) {
				return false
			}
		}
		valid := map[string]bool{}
		for _, x := range s {
			valid[x.ID] = true
		}
		for _, x := range sub {
			if !valid[x.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
