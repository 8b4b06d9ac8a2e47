package editsim

import (
	"testing"

	"conferr/internal/scenario"
)

// TestGenerateStreamParity proves the streaming faultload enumerates
// exactly Generate's scenarios — fresh plugin instances with the same
// seed, because both forms consume the Rng.
func TestGenerateStreamParity(t *testing.T) {
	mk := func() *Plugin {
		return &Plugin{
			Edits: []Edit{
				{Directive: "shared_buffers", NewValue: "64MB"},
				{Directive: "port", NewValue: "6543"},
			},
			PerEdit:          5,
			IncludeCleanEdit: true,
			Seed:             11,
		}
	}
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
		if eager[i].ID != streamed[i].ID || eager[i].Description != streamed[i].Description {
			t.Fatalf("scenario %d: %s vs %s", i, eager[i].ID, streamed[i].ID)
		}
	}
}

// TestShardParity checks purity over the seeded shuffle: every shard is
// a fresh enumeration that must re-derive the identical stream and keep
// its stride, so the union reproduces GenerateStream for any n.
func TestShardParity(t *testing.T) {
	p := &Plugin{
		Edits: []Edit{
			{Directive: "shared_buffers", NewValue: "64MB"},
			{Directive: "port", NewValue: "6543"},
		},
		PerEdit:          7,
		IncludeCleanEdit: true,
		Seed:             11,
	}
	want, err := scenario.Collect(p.GenerateStream(wordSet()))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 8} {
		total := 0
		for k := 0; k < n; k++ {
			s, err := scenario.Collect(p.GenerateStream(wordSet()).Shard(k, n))
			if err != nil {
				t.Fatal(err)
			}
			for j, sc := range s {
				if i := j*n + k; i >= len(want) || want[i].ID != sc.ID {
					t.Fatalf("n=%d shard %d: diverges at local %d", n, k, j)
				}
			}
			total += len(s)
		}
		if total != len(want) {
			t.Fatalf("n=%d: shards hold %d, want %d", n, total, len(want))
		}
	}
}
