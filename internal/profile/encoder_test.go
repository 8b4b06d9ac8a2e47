package profile

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
	"unicode/utf8"
)

// refJSONLLine is the reference rendering: the stock encoder over the
// shared schema, plus the newline JSONLSink appends.
func refJSONLLine(t *testing.T, system, generator string, seq int, r Record) []byte {
	t.Helper()
	line, err := json.Marshal(jsonlRecord{
		System:    system,
		Generator: generator,
		Seq:       seq,
		jsonRecord: jsonRecord{
			ScenarioID:  r.ScenarioID,
			Class:       r.Class,
			Description: r.Description,
			Outcome:     r.Outcome.String(),
			Detail:      r.Detail,
			DurationNS:  r.Duration.Nanoseconds(),
		},
	})
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	return append(line, '\n')
}

func TestAppendJSONLRecordMatchesEncodingJSON(t *testing.T) {
	cases := []struct {
		name   string
		system string
		gen    string
		seq    int
		rec    Record
	}{
		{"plain", "nginx", "typo", 0, Record{
			ScenarioID: "typo/omission/a.conf#3.1/7", Class: "typo/omission",
			Description: "omit 'x' at 2", Outcome: DetectedAtStartup,
			Detail: "unknown directive", Duration: 1234 * time.Microsecond}},
		{"empty-optionals", "s", "g", 42, Record{
			ScenarioID: "id", Class: "c", Outcome: Ignored}},
		{"quotes-and-backslashes", `sy"s`, `ge\n`, 1, Record{
			ScenarioID: `a"b\c`, Class: "c", Detail: "path \\etc\\conf", Outcome: DetectedByTest}},
		{"control-chars", "s", "g", 2, Record{
			ScenarioID: "nl\nret\rtab\tbell\x07", Class: "c", Outcome: NotExpressible}},
		{"html-escapes", "s", "g", 3, Record{
			ScenarioID: "a<b>c&d", Class: "c", Description: "<script>&", Outcome: NotApplicable}},
		{"unicode", "sÿs", "ge√n", 4, Record{
			ScenarioID: "zürich/コンフィグ", Class: "c", Detail: "line sep ator", Outcome: Ignored}},
		{"invalid-utf8", "s", "g", 5, Record{
			ScenarioID: "bad\xffbyte\xc3", Class: "c", Outcome: Ignored}},
		{"negative-duration", "s", "g", 6, Record{
			ScenarioID: "id", Class: "c", Outcome: Ignored, Duration: -5 * time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendJSONLRecord(nil, tc.system, tc.gen, tc.seq, tc.rec)
			want := refJSONLLine(t, tc.system, tc.gen, tc.seq, tc.rec)
			if !bytes.Equal(got, want) {
				t.Errorf("encoder diverged\ngot:  %q\nwant: %q", got, want)
			}
		})
	}
}

// FuzzJSONLEncoder pins the append encoder to encoding/json byte for
// byte: any divergence in field order, empty-field omission, escaping
// (HTML-safe set, \u00xx forms, invalid UTF-8 replacement) or number
// rendering is a finding. Every line with valid UTF-8 strings must also
// parse back to what was encoded, through the fast decoder whenever its
// numbers are under 19 digits.
func FuzzJSONLEncoder(f *testing.F) {
	f.Add("nginx", "typo", 7, "typo/a.conf#1/0", "typo/omission", "omit 'r'", "detail <&>", int64(912345), uint8(1))
	f.Add("", "", 0, "", "", "", "", int64(0), uint8(3))
	f.Add("s\x00y", "g\xff", -3, "id\n", "c\\", "d ", "e\"f", int64(-1), uint8(5))
	f.Fuzz(func(t *testing.T, system, gen string, seq int, id, class, desc, detail string, durNS int64, outcome uint8) {
		rec := Record{
			ScenarioID:  id,
			Class:       class,
			Description: desc,
			Outcome:     Outcome(int(outcome)%6 + 1),
			Detail:      detail,
			Duration:    time.Duration(durNS),
		}
		got := AppendJSONLRecord(nil, system, gen, seq, rec)
		want := refJSONLLine(t, system, gen, seq, rec)
		if !bytes.Equal(got, want) {
			t.Errorf("encoder diverged\ngot:  %q\nwant: %q", got, want)
		}
		for _, s := range []string{system, gen, id, class, desc, detail} {
			if !utf8.ValidString(s) {
				return // encoding replaced the invalid bytes; no round trip
			}
		}
		line := bytes.TrimSuffix(got, []byte("\n"))
		const fastMax = 1e18 // the fast path parses at most 18 digits
		if _, ok := decodeJSONLLine(line); !ok && -fastMax < seq && seq < fastMax && -fastMax < durNS && durNS < fastMax {
			t.Errorf("fast path refused the encoder's line %q", line)
		}
		e, err := ParseJSONLLine(line)
		if err != nil {
			t.Fatalf("parse back %q: %v", line, err)
		}
		if back := (JSONLEntry{System: system, Generator: gen, Seq: seq, Record: rec}); e != back {
			t.Errorf("round trip of %q:\ngot  %+v\nwant %+v", line, e, back)
		}
	})
}

// TestJSONLEncoderAllocs pins the encoder's allocation ceiling: with a
// warmed reusable buffer, appending a record allocates nothing. A
// regression here silently re-inflates every streamed campaign.
func TestJSONLEncoderAllocs(t *testing.T) {
	rec := Record{
		ScenarioID:  "typo/substitution/my.cnf#12.1/345",
		Class:       "typo/substitution",
		Description: "substitute 'q' for 'w' at 3",
		Outcome:     DetectedAtStartup,
		Detail:      "unknown variable 'qait_timeout'",
		Duration:    17 * time.Millisecond,
	}
	buf := AppendJSONLRecord(nil, "mysql", "typo", 0, rec)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendJSONLRecord(buf[:0], "mysql", "typo", 1, rec)
	})
	if allocs != 0 {
		t.Errorf("AppendJSONLRecord allocs/op = %v, want 0", allocs)
	}
}
