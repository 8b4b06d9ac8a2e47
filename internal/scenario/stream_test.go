package scenario

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"conferr/internal/confnode"
)

func mk(ids ...string) []Scenario {
	out := make([]Scenario, len(ids))
	for i, id := range ids {
		out[i] = Scenario{ID: id, Class: "c", Apply: func(*confnode.Set) error { return nil }}
	}
	return out
}

func streamIDs(t *testing.T, src Source) []string {
	t.Helper()
	scens, err := Collect(src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	out := make([]string, len(scens))
	for i, sc := range scens {
		out[i] = sc.ID
	}
	return out
}

// FromSlice adapts a materialized faultload into a Source.
func FromSlice(scenarios []Scenario) Source {
	return func(yield func(Scenario, error) bool) {
		for _, sc := range scenarios {
			if !yield(sc, nil) {
				return
			}
		}
	}
}

func TestFromSliceCollectRoundTrip(t *testing.T) {
	in := mk("a", "b", "c")
	got := streamIDs(t, FromSlice(in))
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("round trip = %v", got)
	}
}

func TestFail(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Collect(Fail(boom)); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestConcatPreservesOrderAndError(t *testing.T) {
	got := streamIDs(t, Concat(FromSlice(mk("a", "b")), FromSlice(mk("c"))))
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("concat = %v", got)
	}
	boom := errors.New("boom")
	scens, err := Collect(Concat(FromSlice(mk("a")), Fail(boom), FromSlice(mk("z"))))
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if scens != nil {
		t.Errorf("scenarios after error = %v, want nil", scens)
	}
}

func TestLimitStopsPullingUpstream(t *testing.T) {
	pulled := 0
	src := Source(func(yield func(Scenario, error) bool) {
		for i := 0; ; i++ {
			pulled++
			if !yield(Scenario{ID: string(rune('a' + i)), Class: "c"}, nil) {
				return
			}
		}
	})
	got := streamIDs(t, src.Limit(3))
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("limit = %v", got)
	}
	// An infinite upstream proves laziness: Limit must stop the pull, not
	// drain and truncate.
	if pulled != 3 {
		t.Errorf("upstream pulled %d times, want 3", pulled)
	}
	if got := streamIDs(t, FromSlice(mk("a")).Limit(0)); len(got) != 0 {
		t.Errorf("limit 0 = %v, want empty", got)
	}
}

func TestSampleNDeterministicAndBounded(t *testing.T) {
	in := mk("a", "b", "c", "d", "e", "f", "g", "h")
	one := streamIDs(t, FromSlice(in).SampleN(7, 3))
	two := streamIDs(t, FromSlice(in).SampleN(7, 3))
	if strings.Join(one, ",") != strings.Join(two, ",") {
		t.Errorf("sample not deterministic: %v vs %v", one, two)
	}
	if len(one) != 3 {
		t.Errorf("sample size = %d, want 3", len(one))
	}
	seen := map[string]bool{}
	for _, id := range one {
		if seen[id] {
			t.Errorf("sample drew %q twice", id)
		}
		seen[id] = true
	}
	// n >= stream length keeps everything.
	if got := streamIDs(t, FromSlice(in).SampleN(7, 100)); len(got) != len(in) {
		t.Errorf("oversized sample = %d scenarios, want %d", len(got), len(in))
	}
}

func TestSampleNIsUniformish(t *testing.T) {
	// Over many seeds, every element of a 10-element stream should be
	// drawn into a 2-element sample at least once — a smoke test that the
	// reservoir actually replaces.
	in := mk("0", "1", "2", "3", "4", "5", "6", "7", "8", "9")
	counts := map[string]int{}
	for seed := int64(0); seed < 200; seed++ {
		for _, id := range streamIDs(t, FromSlice(in).SampleN(seed, 2)) {
			counts[id]++
		}
	}
	for _, sc := range in {
		if counts[sc.ID] == 0 {
			t.Errorf("element %q never sampled across 200 seeds", sc.ID)
		}
	}
}

func TestStagesCompose(t *testing.T) {
	src := Concat(FromSlice(mk("a", "b", "c")), FromSlice(mk("d", "e", "f")))
	got := streamIDs(t, src.Limit(4))
	if strings.Join(got, ",") != "a,b,c,d" {
		t.Errorf("composed = %v", got)
	}
}

func TestRandomSubsetStillMatchesSeededDraw(t *testing.T) {
	// The eager RandomSubset remains the sampling primitive of the
	// materialized plugin paths (published experiment faultloads pin its
	// draws); this guards that the streaming work did not disturb it.
	in := mk("a", "b", "c", "d", "e")
	one := RandomSubset(rand.New(rand.NewSource(3)), in, 2)
	two := RandomSubset(rand.New(rand.NewSource(3)), in, 2)
	if one[0].ID != two[0].ID || one[1].ID != two[1].ID {
		t.Errorf("RandomSubset not deterministic: %v vs %v", one, two)
	}
}
