package scenario

import (
	"fmt"
	"slices"
	"testing"
)

// sliceWalk walks a slice, counting the scenarios it builds in *built.
func sliceWalk(scens []Scenario, built *int) Walk {
	return func(pos int, decide func(int) Step, yield func(Scenario) bool) (int, bool) {
		for _, sc := range scens {
			switch decide(pos) {
			case Stop:
				return pos, false
			case Build:
				*built++
				if !yield(sc) {
					return pos + 1, false
				}
			}
			pos++
		}
		return pos, true
	}
}

func prefixed(p string) func(Scenario) Scenario {
	return func(sc Scenario) Scenario {
		sc.ID = p + sc.ID
		return sc
	}
}

// TestWalkMatchesSource: every walk stage yields what its Source
// counterpart yields — a limit nested in a concatenation (a capped part
// hands over to the next), rounds of it, a limit over those, and every
// shard of each — and a shard builds only the scenarios it yields.
func TestWalkMatchesSource(t *testing.T) {
	for _, size := range []int{0, 1, 7} {
		scens := numbered(size)
		var built int
		w := sliceWalk(scens, &built)
		for _, inner := range []int{0, 1, size - 1, size, size + 2} {
			for _, outer := range []int{0, 1, 5, 2*size + 1, 100} {
				var ws []Walk
				var ss []Source
				for r := range 3 {
					p := fmt.Sprintf("r%d/", r)
					ws = append(ws, w.Limit(inner).Map(prefixed(p)))
					ss = append(ss, FromSlice(scens).Limit(inner).Map(prefixed(p)))
				}
				walk, src := ConcatWalks(ws...).Limit(outer), Concat(ss...).Limit(outer)
				want := shardIDs(t, src)
				if got := shardIDs(t, walk.Source()); !slices.Equal(got, want) {
					t.Fatalf("size %d inner %d outer %d: walk %v, want %v", size, inner, outer, got, want)
				}
				for n := 1; n <= 4; n++ {
					for k := range n {
						built = 0
						got := shardIDs(t, walk.Shard(k, n))
						if want := shardIDs(t, src.Shard(k, n)); !slices.Equal(got, want) {
							t.Fatalf("size %d inner %d outer %d shard %d/%d: walk %v, want %v", size, inner, outer, k, n, got, want)
						}
						if built != len(got) {
							t.Errorf("size %d inner %d outer %d shard %d/%d: built %d scenarios to yield %d", size, inner, outer, k, n, built, len(got))
						}
					}
				}
			}
		}
	}
}
