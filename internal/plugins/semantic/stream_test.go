package semantic

import (
	"testing"

	"conferr/internal/scenario"
)

// TestGenerateStreamParity proves the streaming faultload enumerates
// exactly Generate's scenarios, in order, over the BIND record view.
func TestGenerateStreamParity(t *testing.T) {
	set, v := bindViewSet(t)
	for _, classes := range [][]string{nil, {ClassMissingPTR, ClassMXToCNAME}} {
		p := &Plugin{RecordView: v, Classes: classes}
		eager, err := p.Generate(set)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := scenario.Collect(p.GenerateStream(set))
		if err != nil {
			t.Fatal(err)
		}
		if len(eager) == 0 || len(eager) != len(streamed) {
			t.Fatalf("classes %v: eager %d scenarios, streamed %d", classes, len(eager), len(streamed))
		}
		for i := range eager {
			if eager[i].ID != streamed[i].ID {
				t.Fatalf("classes %v, scenario %d: %s vs %s", classes, i, eager[i].ID, streamed[i].ID)
			}
		}
	}
}

func TestGenerateStreamUnknownClass(t *testing.T) {
	set, v := bindViewSet(t)
	p := &Plugin{RecordView: v, Classes: []string{"semantic/nope"}}
	if _, err := scenario.Collect(p.GenerateStream(set)); err == nil {
		t.Error("unknown class accepted by stream")
	}
}

// TestShardParity checks purity over the BIND record view: each shard is
// a fresh enumeration, and the union of strided shards == the unsharded
// stream, any n.
func TestShardParity(t *testing.T) {
	set, v := bindViewSet(t)
	p := &Plugin{RecordView: v}
	want, err := scenario.Collect(p.GenerateStream(set))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 8} {
		total := 0
		for k := 0; k < n; k++ {
			s, err := scenario.Collect(p.GenerateStream(set).Shard(k, n))
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
