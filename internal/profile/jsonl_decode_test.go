package profile

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// canonicalLine is what AppendJSONLRecord writes for the record below,
// minus the newline: every field present, escapes in several of them.
const canonicalLine = `{"system":"nginx","generator":"typo","seq":41,` +
	`"scenario_id":"typo/substitution/nginx.conf#12.1/345","class":"typo/substitution",` +
	`"description":"substitute 'q' for 'w' at 3 \u003cworker\u003e","outcome":"detected-at-startup",` +
	`"detail":"unknown directive \"qorker_processes\" in C:\\nginx\\nginx.conf:12\n","duration_ns":17000000}`

// jsonlLineSeeds are the decoder's corpus: lines the fast path must
// accept (fast true) and lines it must leave to encoding/json.
var jsonlLineSeeds = []struct {
	name string
	line string
	fast bool
}{
	{"canonical", canonicalLine, true},
	{"minimal", `{"system":"s","generator":"g","seq":0,"scenario_id":"id","class":"c","outcome":"ignored"}`, true},
	{"every-escape", `{"system":"s\"q","generator":"b\\s","seq":7,"scenario_id":"a\/b\b\f\n\r\t","class":"\u00e9\u00E9\u2028\u0000",` +
		`"outcome":"not-applicable","detail":"ok","duration_ns":-5}`, true},
	{"raw-utf8", `{"system":"sÿs","generator":"ge√n","seq":1,"scenario_id":"zürich/コンフィグ","class":"c","outcome":"infrastructure-error"}`, true},
	{"negative-seq", `{"system":"s","generator":"g","seq":-3,"scenario_id":"id","class":"c","outcome":"ignored"}`, true},
	{"18-digit-seq", `{"system":"s","generator":"g","seq":123456789012345678,"scenario_id":"id","class":"c","outcome":"ignored"}`, true},
	{"explicit-empty-description", `{"system":"s","generator":"g","seq":2,"scenario_id":"id","class":"c","description":"","outcome":"detected-by-test"}`, true},
	{"explicit-zero-duration", `{"system":"s","generator":"g","seq":2,"scenario_id":"id","class":"c","outcome":"not-expressible","duration_ns":0}`, true},
	{"surrogate-pair", `{"system":"s","generator":"g","seq":3,"scenario_id":"\ud83d\ude00","class":"c","outcome":"ignored"}`, false},
	{"lone-surrogate", `{"system":"s","generator":"g","seq":3,"scenario_id":"x\ud83dy","class":"c","outcome":"ignored"}`, false},
	{"invalid-utf8", "{\"system\":\"s\",\"generator\":\"g\",\"seq\":4,\"scenario_id\":\"bad\xffbyte\xc3\",\"class\":\"c\",\"outcome\":\"ignored\"}", false},
	{"invalid-utf8-after-escape", "{\"system\":\"s\",\"generator\":\"g\",\"seq\":4,\"scenario_id\":\"\\n\xff\",\"class\":\"c\",\"outcome\":\"ignored\"}", false},
	{"control-byte", "{\"system\":\"s\",\"generator\":\"g\",\"seq\":4,\"scenario_id\":\"a\x01b\",\"class\":\"c\",\"outcome\":\"ignored\"}", false},
	{"19-digit-seq", `{"system":"s","generator":"g","seq":1234567890123456789,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"20-digit-seq", `{"system":"s","generator":"g","seq":12345678901234567890,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"minus-zero", `{"system":"s","generator":"g","seq":-0,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"leading-zero", `{"system":"s","generator":"g","seq":07,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"float-seq", `{"system":"s","generator":"g","seq":1e2,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"string-seq", `{"system":"s","generator":"g","seq":"7","scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"reordered", `{"generator":"g","system":"s","seq":5,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"upper-case-key", `{"System":"s","generator":"g","seq":5,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"unknown-key", `{"system":"s","generator":"g","seq":5,"scenario_id":"id","class":"c","outcome":"ignored","extra":1}`, false},
	{"null-field", `{"system":null,"generator":"g","seq":5,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"inner-space", `{"system": "s","generator":"g","seq":5,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"trailing-space", `{"system":"s","generator":"g","seq":5,"scenario_id":"id","class":"c","outcome":"ignored"} `, false},
	{"trailing-cr", "{\"system\":\"s\",\"generator\":\"g\",\"seq\":5,\"scenario_id\":\"id\",\"class\":\"c\",\"outcome\":\"ignored\"}\r", false},
	{"trailing-garbage", `{"system":"s","generator":"g","seq":5,"scenario_id":"id","class":"c","outcome":"ignored"}x`, false},
	{"bogus-outcome", `{"system":"s","generator":"g","seq":6,"scenario_id":"id","class":"c","outcome":"bogus"}`, false},
	{"escaped-outcome", `{"system":"s","generator":"g","seq":6,"scenario_id":"id","class":"c","outcome":"ignor\u0065d"}`, true},
	{"bad-escape", `{"system":"s\q","generator":"g","seq":6,"scenario_id":"id","class":"c","outcome":"ignored"}`, false},
	{"truncated", `{"system":"s","generator":"g","seq":6,"scenario_id":"i`, false},
	{"empty-object", `{}`, false},
	{"null", `null`, false},
}

// sameAsUnmarshal fails unless ParseJSONLLine returns exactly what the
// encoding/json path returns for line: an equal entry, or the same
// error.
func sameAsUnmarshal(t *testing.T, line []byte) {
	t.Helper()
	got, gotErr := ParseJSONLLine(line)
	want, wantErr := unmarshalJSONLLine(line)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("line %q: error %v, encoding/json says %v", line, gotErr, wantErr)
	}
	if got != want {
		t.Fatalf("line %q:\ngot  %+v\nwant %+v", line, got, want)
	}
}

func TestParseJSONLLineFastPath(t *testing.T) {
	for _, tc := range jsonlLineSeeds {
		t.Run(tc.name, func(t *testing.T) {
			if _, fast := decodeJSONLLine([]byte(tc.line)); fast != tc.fast {
				t.Errorf("fast path taken = %v, want %v", fast, tc.fast)
			}
			sameAsUnmarshal(t, []byte(tc.line))
		})
	}
}

// FuzzParseJSONLLine holds the fast path to its specification: for any
// bytes, ParseJSONLLine returns what encoding/json returns.
func FuzzParseJSONLLine(f *testing.F) {
	for _, tc := range jsonlLineSeeds {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		sameAsUnmarshal(t, line)
	})
}

// TestScanJSONLErrorWording pins ScanJSONL's error text for malformed
// lines: the line number, the byte offset and the encoding/json (or
// outcome) message, exactly as the encoding/json-only reader wrote it.
func TestScanJSONLErrorWording(t *testing.T) {
	good := `{"system":"s","generator":"g","seq":0,"scenario_id":"id","class":"c","outcome":"ignored"}` + "\n"
	prefix := fmt.Sprintf("profile: JSONL line 2 (byte offset %d): ", len(good))
	cases := []struct{ line, want string }{
		{`{not json}`, "invalid character 'n' looking for beginning of object key string"},
		{`{"system":"s","generator":"g","seq":6,"scenario_id":"i`, "unexpected end of JSON input"},
		{`{"system":"s","generator":"g","seq":5,"scenario_id":"id","class":"c","outcome":"ignored"}x`, "invalid character 'x' after top-level value"},
		{"{\"system\":\"a\x01b\"}", `invalid character '\x01' in string literal`},
		{`{"system":"s\q"}`, `invalid character 'q' in string escape code`},
		{`{"system":"s","generator":"g","seq":"7","scenario_id":"id","class":"c","outcome":"ignored"}`,
			"json: cannot unmarshal string into Go struct field jsonlRecord.seq of type int"},
		{`{"system":"s","generator":"g","seq":12345678901234567890,"scenario_id":"id","class":"c","outcome":"ignored"}`,
			"json: cannot unmarshal number 12345678901234567890 into Go struct field jsonlRecord.seq of type int"},
		{`{"system":"s","generator":"g","seq":1e2,"scenario_id":"id","class":"c","outcome":"ignored"}`,
			"json: cannot unmarshal number 1e2 into Go struct field jsonlRecord.seq of type int"},
		{`{"system":"s","generator":"g","seq":6,"scenario_id":"id","class":"c","outcome":"bogus"}`, `profile: unknown outcome "bogus"`},
		{`{"system":"s","generator":"g","seq":6,"scenario_id":"id","class":"c"}`, `profile: unknown outcome ""`},
	}
	for _, tc := range cases {
		err := ScanJSONL(strings.NewReader(good+tc.line+"\n"), func(JSONLEntry) error { return nil })
		if err == nil || err.Error() != prefix+tc.want {
			t.Errorf("line %q:\nerror %v\nwant  %s", tc.line, err, prefix+tc.want)
		}
	}
}

// TestParseJSONLLineAllocs pins the fast path's allocation ceiling: one
// string per non-empty string field, escapes decoded through the stack
// scratch buffer, and nothing for the outcome.
func TestParseJSONLLineAllocs(t *testing.T) {
	cases := []struct {
		line string
		max  float64
	}{
		{canonicalLine, 6},
		{`{"system":"","generator":"","seq":9,"scenario_id":"","class":"","outcome":"detected-by-test","duration_ns":5}`, 0},
	}
	for _, tc := range cases {
		line := []byte(tc.line)
		e, ok := decodeJSONLLine(line)
		if !ok {
			t.Fatalf("fast path refused %q", line)
		}
		if enc := AppendJSONLRecord(nil, e.System, e.Generator, e.Seq, e.Record); string(enc) != tc.line+"\n" {
			t.Fatalf("%q is not canonical: AppendJSONLRecord writes %q", line, enc)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := ParseJSONLLine(line); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("ParseJSONLLine(%q) allocs/op = %v, want <= %v", line, allocs, tc.max)
		}
	}
}

// BenchmarkParseJSONLLine decodes canonical lines as JSONLSink writes
// them, with escapes in the strings.
func BenchmarkParseJSONLLine(b *testing.B) {
	var lines [][]byte
	for i := 0; i < 64; i++ {
		rec := Record{
			ScenarioID:  fmt.Sprintf("typo/substitution/nginx.conf#%d.1/%d", i, i*7),
			Class:       "typo/substitution",
			Description: fmt.Sprintf("substitute 'q' for 'w' at %d <worker>", i),
			Outcome:     Outcome(i%6 + 1),
			Detail:      "unknown directive \"qorker_processes\"\n",
			Duration:    time.Duration(i) * time.Millisecond,
		}
		line := AppendJSONLRecord(nil, "nginx", "typo", i, rec)
		lines = append(lines, bytes.TrimSuffix(line, []byte("\n")))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseJSONLLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}
