package profile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func sinkRecords() []Record {
	return []Record{
		{ScenarioID: "s/0", Class: "c", Description: "d0", Outcome: DetectedAtStartup, Detail: "bad", Duration: time.Millisecond},
		{ScenarioID: "s/1", Class: "c", Outcome: DetectedByTest, Detail: "t: fail"},
		{ScenarioID: "s/2", Class: "c2", Outcome: Ignored},
		{ScenarioID: "s/3", Class: "c2", Outcome: NotExpressible},
		{ScenarioID: "s/4", Class: "c2", Outcome: NotApplicable},
	}
}

func TestMemorySink(t *testing.T) {
	prof := &Profile{System: "sys", Generator: "gen"}
	s := &MemorySink{Profile: prof}
	for _, r := range sinkRecords() {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(prof.Records) != 5 || prof.Records[2].ScenarioID != "s/2" {
		t.Errorf("memory sink records = %+v", prof.Records)
	}
}

func TestTallySinkMatchesSummarize(t *testing.T) {
	prof := &Profile{}
	tally := &TallySink{}
	for _, r := range sinkRecords() {
		prof.Add(r)
		if err := tally.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	want := prof.Summarize()
	got := tally.Summary()
	got.System = want.System
	if got != want {
		t.Errorf("tally = %+v, want %+v", got, want)
	}
}

type failSink struct{ err error }

func (s failSink) Write(Record) error { return s.err }

func TestMultiSinkStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	prof := &Profile{}
	m := MultiSink{&MemorySink{Profile: prof}, failSink{boom}, &TallySink{}}
	if err := m.Write(Record{ScenarioID: "x"}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if len(prof.Records) != 1 {
		t.Errorf("first member saw %d records, want 1", len(prof.Records))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf, "sys", "gen")
	for _, r := range sinkRecords() {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Count(buf.String(), "\n"); got != 5 {
		t.Fatalf("wrote %d lines, want 5", got)
	}
	got := scanAll(t, &buf)
	want := sinkRecords()
	if len(got) != len(want) {
		t.Fatalf("records = %d, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.System != "sys" || e.Generator != "gen" || e.Seq != i {
			t.Errorf("entry %d tagged %s/%s seq %d", i, e.System, e.Generator, e.Seq)
		}
		if e.Record != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, e.Record, want[i])
		}
	}
}

// scanAll decodes every entry of a JSONL stream, in file order.
func scanAll(t *testing.T, r io.Reader) []JSONLEntry {
	t.Helper()
	var out []JSONLEntry
	if err := ScanJSONL(r, func(e JSONLEntry) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJSONLInterleavedCampaignsKeepTheirTags(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLockedWriter(&buf)
	a := NewJSONLSink(lw, "sysA", "gen")
	b := NewJSONLSink(lw, "sysB", "gen")
	// Interleave two campaigns' records into one shared file.
	_ = a.Write(Record{ScenarioID: "a/0", Class: "c", Outcome: Ignored})
	_ = b.Write(Record{ScenarioID: "b/0", Class: "c", Outcome: Ignored})
	_ = a.Write(Record{ScenarioID: "a/1", Class: "c", Outcome: Ignored})
	_ = b.Write(Record{ScenarioID: "b/1", Class: "c", Outcome: Ignored})
	var got []string
	for _, e := range scanAll(t, &buf) {
		got = append(got, fmt.Sprintf("%s %d %s", e.System, e.Seq, e.Record.ScenarioID))
	}
	want := []string{"sysA 0 a/0", "sysB 0 b/0", "sysA 1 a/1", "sysB 1 b/1"}
	if !slices.Equal(got, want) {
		t.Errorf("entries = %q, want %q", got, want)
	}
}

func TestLockedWriterConcurrentLines(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLockedWriter(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewJSONLSink(lw, "sys", "gen")
			for i := 0; i < 50; i++ {
				if err := s.Write(Record{ScenarioID: "x", Class: "c", Outcome: Ignored}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d torn: %q", i, line)
		}
	}
}

func TestScanJSONLRejectsGarbage(t *testing.T) {
	none := func(JSONLEntry) error { return nil }
	if err := ScanJSONL(strings.NewReader("not json\n"), none); err == nil {
		t.Error("garbage line accepted")
	}
	if err := ScanJSONL(strings.NewReader(`{"system":"s","generator":"g","scenario_id":"x","outcome":"nope"}`+"\n"), none); err == nil {
		t.Error("unknown outcome accepted")
	}
}

func TestMultiSinkShardability(t *testing.T) {
	t1, t2 := &TallySink{}, &TallySink{}
	all := MultiSink{t1, t2}
	if !CanShardSink(all) {
		t.Fatal("MultiSink of tallies should be shardable")
	}
	mixed := MultiSink{t1, &MemorySink{Profile: &Profile{}}}
	if CanShardSink(mixed) {
		t.Fatal("MultiSink with an ordered member must not be shardable")
	}
	// Fan two records out through shard sub-sinks; both tallies merge.
	a := all.ShardSink(0, 2)
	b := all.ShardSink(1, 2)
	if err := a.Write(Record{Outcome: Ignored}); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(Record{Outcome: DetectedByTest}); err != nil {
		t.Fatal(err)
	}
	for i, ts := range []*TallySink{t1, t2} {
		if ts.Summary().Injected != 2 {
			t.Errorf("tally %d: summary=%+v", i, ts.Summary())
		}
	}
}
