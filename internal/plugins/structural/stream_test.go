package structural

import (
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/scenario"
)

func assertParity(t *testing.T, set *confnode.Set, eager func() ([]scenario.Scenario, error), stream func() scenario.Source) {
	t.Helper()
	want, err := eager()
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenario.Collect(stream())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("eager %d scenarios, streamed %d", len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Class != got[i].Class {
			t.Fatalf("scenario %d: %s vs %s", i, want[i].ID, got[i].ID)
		}
	}
}

func TestPluginStreamParity(t *testing.T) {
	set := iniSet(t)
	assertParity(t, set,
		func() ([]scenario.Scenario, error) { return (&Plugin{Sections: true}).Generate(set) },
		func() scenario.Source { return (&Plugin{Sections: true}).GenerateStream(set) })
	assertParity(t, set,
		func() ([]scenario.Scenario, error) {
			return (&Plugin{Sections: true, PerClass: 2, Seed: 5}).Generate(set)
		},
		func() scenario.Source {
			return (&Plugin{Sections: true, PerClass: 2, Seed: 5}).GenerateStream(set)
		})
}

func TestVariationsStreamParity(t *testing.T) {
	set := iniSet(t)
	assertParity(t, set,
		func() ([]scenario.Scenario, error) {
			return (&Variations{PerClass: 3, Seed: 5}).Generate(set)
		},
		func() scenario.Source {
			return (&Variations{PerClass: 3, Seed: 5}).GenerateStream(set)
		})
}

func TestBorrowStreamParity(t *testing.T) {
	set := iniSet(t)
	donor := iniSet(t)
	assertParity(t, set,
		func() ([]scenario.Scenario, error) { return (&Borrow{Donor: donor}).Generate(set) },
		func() scenario.Source { return (&Borrow{Donor: donor}).GenerateStream(set) })
	assertParity(t, set,
		func() ([]scenario.Scenario, error) {
			return (&Borrow{Donor: donor, PerClass: 3, Seed: 5}).Generate(set)
		},
		func() scenario.Source {
			return (&Borrow{Donor: donor, PerClass: 3, Seed: 5}).GenerateStream(set)
		})
}

// assertShardParity checks that the generator is pure: every shard is a
// fresh enumeration cut to stride k, so interleaving shard(k,n) for all k
// reproduces the unsharded stream only if each call enumerates the same
// faultload, for several n including counts that do not divide it.
func assertShardParity(t *testing.T, stream func() scenario.Source, shard func(k, n int) scenario.Source) {
	t.Helper()
	want, err := scenario.Collect(stream())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty faultload")
	}
	for _, n := range []int{1, 2, 3, 8} {
		shards := make([][]scenario.Scenario, n)
		for k := 0; k < n; k++ {
			s, err := scenario.Collect(shard(k, n))
			if err != nil {
				t.Fatalf("n=%d shard %d: %v", n, k, err)
			}
			shards[k] = s
		}
		for i, w := range want {
			k, j := i%n, i/n
			if j >= len(shards[k]) || shards[k][j].ID != w.ID {
				t.Fatalf("n=%d: union of shards diverges at global %d (%s)", n, i, w.ID)
			}
		}
		total := 0
		for _, s := range shards {
			total += len(s)
		}
		if total != len(want) {
			t.Fatalf("n=%d: shards hold %d scenarios, want %d", n, total, len(want))
		}
	}
}

func TestPluginShardParity(t *testing.T) {
	set := iniSet(t)
	p := &Plugin{Sections: true, PerClass: 2, Seed: 5}
	assertShardParity(t,
		func() scenario.Source { return p.GenerateStream(set) },
		func(k, n int) scenario.Source { return p.GenerateStream(set).Shard(k, n) })
}

func TestVariationsShardParity(t *testing.T) {
	set := iniSet(t)
	v := &Variations{PerClass: 3, Seed: 5}
	// Variation scenario IDs repeat across shard pulls only if the
	// per-scenario rewrite seeds do: this also pins the seed-derivation
	// purity of the stream.
	assertShardParity(t,
		func() scenario.Source { return v.GenerateStream(set) },
		func(k, n int) scenario.Source { return v.GenerateStream(set).Shard(k, n) })
}

func TestBorrowShardParity(t *testing.T) {
	set := iniSet(t)
	b := &Borrow{Donor: iniSet(t), PerClass: 3, Seed: 5}
	assertShardParity(t,
		func() scenario.Source { return b.GenerateStream(set) },
		func(k, n int) scenario.Source { return b.GenerateStream(set).Shard(k, n) })
}
