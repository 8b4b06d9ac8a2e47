package core

import (
	"context"
	"testing"

	"conferr/internal/benchfixture"
	"conferr/internal/confnode"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/view"
)

func shardTestCampaign() *Campaign {
	return &Campaign{
		Target:    &Target{System: benchfixture.System{}, Formats: benchfixture.Formats()},
		Generator: benchfixture.Gen{},
	}
}

// sliceOnlyGen hides benchfixture.Gen's native shard support so RunShard
// exercises the stride fallback.
type sliceOnlyGen struct{ g benchfixture.Gen }

func (s sliceOnlyGen) Name() string    { return s.g.Name() }
func (s sliceOnlyGen) View() view.View { return s.g.View() }
func (s sliceOnlyGen) Generate(set *confnode.Set) ([]scenario.Scenario, error) {
	return s.g.Generate(set)
}

// runShardUnion runs every shard of n and returns the union keyed by
// global sequence, checking per-shard totals along the way.
func runShardUnion(t *testing.T, c *Campaign, n, startSeq int) map[int]profile.Record {
	t.Helper()
	got := make(map[int]profile.Record)
	for k := 0; k < n; k++ {
		total, err := c.RunShard(context.Background(), k, n, startSeq, func(seq int, rec profile.Record) error {
			if _, dup := got[seq]; dup {
				t.Fatalf("sequence %d emitted twice", seq)
			}
			got[seq] = rec
			return nil
		})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", k, n, err)
		}
		want := 0
		for seq := k; seq < benchfixture.Files*benchfixture.DirsPerFile; seq += n {
			want++
		}
		if total != want {
			t.Fatalf("shard %d/%d reported %d owned sequences, want %d", k, n, total, want)
		}
	}
	return got
}

// TestRunShardUnionMatchesRun: the shards of a campaign, merged by
// global sequence, reproduce the unsharded run record for record — the
// property the distributed coordinator's byte-identity rests on.
func TestRunShardUnionMatchesRun(t *testing.T) {
	ref := shardTestCampaign()
	prof, err := ref.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := prof.Records
	if len(want) != benchfixture.Files*benchfixture.DirsPerFile {
		t.Fatalf("reference run produced %d records", len(want))
	}

	for _, gen := range []Generator{benchfixture.Gen{}, sliceOnlyGen{}} {
		c := shardTestCampaign()
		c.Generator = gen
		if _, native := gen.(ShardedGenerator); native != CanShard(gen) {
			t.Fatalf("%T: CanShard disagrees with interface", gen)
		}
		got := runShardUnion(t, c, 3, 0)
		if len(got) != len(want) {
			t.Fatalf("%T: shards produced %d records, want %d", gen, len(got), len(want))
		}
		for seq, w := range want {
			g, ok := got[seq]
			if !ok {
				t.Fatalf("%T: sequence %d missing", gen, seq)
			}
			g.Duration, w.Duration = 0, 0
			if g != w {
				t.Fatalf("%T: sequence %d: got %+v, want %+v", gen, seq, g, w)
			}
		}
	}
}

// TestRunShardStartSeqSkips: sequences below startSeq are counted but
// neither executed nor emitted — the resume fast path.
func TestRunShardStartSeqSkips(t *testing.T) {
	c := shardTestCampaign()
	const n, start = 2, 7
	totalScens := benchfixture.Files * benchfixture.DirsPerFile
	for k := 0; k < n; k++ {
		var seqs []int
		total, err := c.RunShard(context.Background(), k, n, start, func(seq int, _ profile.Record) error {
			seqs = append(seqs, seq)
			return nil
		})
		if err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
		owned := 0
		wantEmitted := 0
		for seq := k; seq < totalScens; seq += n {
			owned++
			if seq >= start {
				wantEmitted++
			}
		}
		if total != owned {
			t.Fatalf("shard %d: total %d, want %d (skips must still count)", k, total, owned)
		}
		if len(seqs) != wantEmitted {
			t.Fatalf("shard %d: emitted %d records, want %d", k, len(seqs), wantEmitted)
		}
		for _, s := range seqs {
			if s < start {
				t.Fatalf("shard %d: emitted sequence %d below start %d", k, s, start)
			}
		}
	}
}

// TestRunShardRejectsBadBounds: malformed shard coordinates fail before
// any generation happens.
func TestRunShardRejectsBadBounds(t *testing.T) {
	c := shardTestCampaign()
	for _, kn := range [][2]int{{0, 0}, {-1, 2}, {2, 2}, {5, 3}} {
		if _, err := c.RunShard(context.Background(), kn[0], kn[1], 0, func(int, profile.Record) error { return nil }); err == nil {
			t.Fatalf("shard %d of %d accepted", kn[0], kn[1])
		}
	}
}
