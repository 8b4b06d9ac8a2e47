package profile

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func analyticsRecord(i int) Record {
	return Record{
		ScenarioID: fmt.Sprintf("typo/directive-%02d/pos-%d", i%10, i%3),
		Class:      []string{"section", "directive"}[i%2],
		Outcome:    Outcome(i%int(NotApplicable) + 1),
		Duration:   time.Duration(i) * time.Microsecond,
	}
}

func analyticsEntries(n int) []JSONLEntry {
	out := make([]JSONLEntry, n)
	for i := range out {
		out[i] = JSONLEntry{System: "nginx", Generator: "typo", Seq: i, Record: analyticsRecord(i)}
	}
	return out
}

// TestStreamStatsMatchesSummary: folding a stream must tally exactly
// what a materialized Summary.Add pass over the same records does.
func TestStreamStatsMatchesSummary(t *testing.T) {
	entries := analyticsEntries(120)
	var want Summary
	want.System = "nginx"
	var wantDur time.Duration
	for _, e := range entries {
		want.Add(e.Record)
		wantDur += e.Record.Duration
	}
	stats := NewStreamStats(nil)
	for _, e := range entries {
		if err := stats.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	cs := stats.Campaigns()
	if len(cs) != 1 {
		t.Fatalf("campaigns = %d, want 1", len(cs))
	}
	if cs[0].Summary != want {
		t.Errorf("summary = %+v, want %+v", cs[0].Summary, want)
	}
	if cs[0].Duration != wantDur {
		t.Errorf("duration = %v, want %v", cs[0].Duration, wantDur)
	}
	if stats.TotalRecords() != len(entries) {
		t.Errorf("records = %d, want %d", stats.TotalRecords(), len(entries))
	}
	// Per-class rows partition the campaign.
	classes := cs[0].Classes()
	if len(classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(classes))
	}
	if n := classes[0].Summary.Injected + classes[1].Summary.Injected; n != want.Injected {
		t.Errorf("class injected total = %d, want %d", n, want.Injected)
	}
}

// TestStreamStatsInterleavedCampaigns: records of campaigns that share a
// system or a generator, interleaved in runs of every length, fold into
// each campaign exactly what folding that campaign alone does.
func TestStreamStatsInterleavedCampaigns(t *testing.T) {
	names := [][2]string{{"nginx", "typo"}, {"nginx", "structural"}, {"apache", "typo"}}
	mixed := NewStreamStats(nil)
	alone := make([]*StreamStats, len(names))
	for i := range alone {
		alone[i] = NewStreamStats(nil)
	}
	for i, e := range analyticsEntries(300) {
		c := (i / (1 + i%4)) % len(names)
		e.System, e.Generator = names[c][0], names[c][1]
		_ = mixed.Add(e)
		_ = alone[c].Add(e)
	}
	got := map[[2]string]*CampaignStats{}
	for _, c := range mixed.Campaigns() {
		got[[2]string{c.System, c.Generator}] = c
	}
	if len(got) != len(names) {
		t.Fatalf("campaigns = %d, want %d", len(got), len(names))
	}
	for i, a := range alone {
		want, c := a.Campaigns()[0], got[names[i]]
		if c == nil || c.Records != want.Records || c.Summary != want.Summary || c.Duration != want.Duration {
			t.Errorf("campaign %v: %+v, folded alone %+v", names[i], c, want)
		}
	}
}

// TestStreamStatsFormatReport: the report carries the paper's shapes —
// Table 1 summary, scorecard, per-class tables, Figure 3 bands.
func TestStreamStatsFormatReport(t *testing.T) {
	stats := NewStreamStats(func(r Record) string { return r.ScenarioID })
	for _, e := range analyticsEntries(60) {
		_ = stats.Add(e)
	}
	rep := stats.FormatReport()
	for _, want := range []string{
		"Outcome summary (Table 1 shape)",
		"Resilience scorecard",
		"Per-class outcomes: nginx (Table 2/3 shape)",
		"Per-directive detection bands (Figure 3 shape)",
		"nginx",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestDiffStatsRegressionGate: the diff surfaces per-campaign and
// per-class detection-rate movement and MaxRegressionPP powers the CI
// gate.
func TestDiffStatsRegressionGate(t *testing.T) {
	mk := func(detected, injected int) *StreamStats {
		s := NewStreamStats(nil)
		for i := 0; i < injected; i++ {
			out := Ignored
			if i < detected {
				out = DetectedAtStartup
			}
			_ = s.Add(JSONLEntry{System: "nginx", Generator: "typo", Seq: i,
				Record: Record{ScenarioID: fmt.Sprintf("s%d", i), Class: "directive", Outcome: out}})
		}
		return s
	}
	before, after := mk(80, 100), mk(60, 100)
	d := DiffStats(before, after)
	if got := d.MaxRegressionPP(); got < 19.9 || got > 20.1 {
		t.Fatalf("MaxRegressionPP = %v, want ~20", got)
	}
	out := d.FormatDiff()
	if !strings.Contains(out, "nginx") || !strings.Contains(out, "-20.0") {
		t.Errorf("diff output missing the regression:\n%s", out)
	}
	// Improvement is not a regression.
	if got := DiffStats(after, before).MaxRegressionPP(); got != 0 {
		t.Errorf("improvement scored as %vpp regression", got)
	}
	// A campaign present on only one side is reported, not dropped.
	solo := NewStreamStats(nil)
	_ = solo.Add(JSONLEntry{System: "redis", Generator: "typo",
		Record: Record{ScenarioID: "x", Class: "entry", Outcome: Ignored}})
	d2 := DiffStats(before, solo)
	if len(d2.OnlyBefore) != 1 || len(d2.OnlyAfter) != 1 {
		t.Errorf("one-sided campaigns: before=%v after=%v", d2.OnlyBefore, d2.OnlyAfter)
	}
}

// TestScanJSONLErrorReportsLineAndOffset: a parse failure names the
// 1-based line number and the byte offset where the line starts.
func TestScanJSONLErrorReportsLineAndOffset(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf, "nginx", "typo")
	for i := 0; i < 2; i++ {
		if err := sink.Write(analyticsRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	goodLen := buf.Len()
	buf.WriteString("{not json}\n")
	err := ScanJSONL(bytes.NewReader(buf.Bytes()), func(JSONLEntry) error { return nil })
	if err == nil {
		t.Fatal("garbage line accepted")
	}
	wantPrefix := fmt.Sprintf("profile: JSONL line 3 (byte offset %d)", goodLen)
	if !strings.Contains(err.Error(), wantPrefix) {
		t.Errorf("error = %q, want it to contain %q", err, wantPrefix)
	}

	// Callback errors pass through with the same location context.
	boom := errors.New("boom")
	err = ScanJSONL(bytes.NewReader(buf.Bytes()[:goodLen]), func(e JSONLEntry) error {
		if e.Seq == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("callback error not propagated: %v", err)
	}
}
