package typo

import (
	"testing"

	"conferr/internal/scenario"
)

// assertStreamParity proves the plugin's two faultload forms enumerate
// identical scenarios: Generate versus collected GenerateStream (both
// are pure functions of the seed, so fresh instances suffice).
func assertStreamParity(t *testing.T, mk func() *Plugin) {
	t.Helper()
	eager, err := mk().Generate(wordSet())
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := scenario.Collect(mk().GenerateStream(wordSet()))
	if err != nil {
		t.Fatal(err)
	}
	if len(eager) == 0 || len(eager) != len(streamed) {
		t.Fatalf("eager %d scenarios, streamed %d", len(eager), len(streamed))
	}
	for i := range eager {
		if eager[i].ID != streamed[i].ID || eager[i].Class != streamed[i].Class {
			t.Fatalf("scenario %d: %s/%s vs %s/%s",
				i, eager[i].ID, eager[i].Class, streamed[i].ID, streamed[i].Class)
		}
	}
}

func TestGenerateStreamParityUnsampled(t *testing.T) {
	assertStreamParity(t, func() *Plugin { return &Plugin{} })
}

func TestGenerateStreamParitySampled(t *testing.T) {
	assertStreamParity(t, func() *Plugin {
		return &Plugin{PerModel: 3, Seed: 9}
	})
	assertStreamParity(t, func() *Plugin {
		return &Plugin{PerDirective: 4, Seed: 9}
	})
}

// TestGenerateStreamLazyPull: on the unsampled path, stopping the pull
// after three scenarios must not enumerate the rest of the faultload.
func TestGenerateStreamLazyPull(t *testing.T) {
	p := &Plugin{}
	got, err := scenario.Collect(p.GenerateStream(wordSet()).Limit(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("limited stream yielded %d scenarios", len(got))
	}
	full, err := (&Plugin{}).Generate(wordSet())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].ID != full[i].ID {
			t.Errorf("prefix diverged at %d: %s vs %s", i, got[i].ID, full[i].ID)
		}
	}
}

// assertShardParity checks that the plugin is pure: every shard is a
// fresh enumeration cut to stride k, so interleaving the shards for all k
// reproduces the unsharded stream only if each call enumerates the same
// faultload, for several n including counts that do not divide it.
func assertShardParity(t *testing.T, p *Plugin) {
	t.Helper()
	want, err := scenario.Collect(p.GenerateStream(wordSet()))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty faultload")
	}
	for _, n := range []int{1, 2, 3, 8} {
		total := 0
		for k := 0; k < n; k++ {
			s, err := scenario.Collect(p.GenerateStream(wordSet()).Shard(k, n))
			if err != nil {
				t.Fatalf("n=%d shard %d: %v", n, k, err)
			}
			for j, sc := range s {
				if i := j*n + k; i >= len(want) || want[i].ID != sc.ID {
					t.Fatalf("n=%d shard %d: diverges at local %d (%s)", n, k, j, sc.ID)
				}
			}
			total += len(s)
		}
		if total != len(want) {
			t.Fatalf("n=%d: shards hold %d scenarios, want %d", n, total, len(want))
		}
	}
}

func TestShardParityUnsampled(t *testing.T) {
	assertShardParity(t, &Plugin{})
}

func TestShardParitySampled(t *testing.T) {
	assertShardParity(t, &Plugin{PerModel: 3, Seed: 9})
	assertShardParity(t, &Plugin{PerDirective: 4, Seed: 9})
}
