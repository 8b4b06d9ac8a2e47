package nginx

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseConfig feeds arbitrary configuration text to the parser,
// seeded from the simulator's baseline configuration: it must not panic,
// and an accepted input must parse the same way twice.
func FuzzParseConfig(f *testing.F) {
	s, err := New(8080)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(s.DefaultConfig()[ConfigFile]))
	f.Fuzz(func(t *testing.T, conf string) {
		first, err := parseConfig(conf)
		if err != nil {
			return
		}
		second, err := parseConfig(conf)
		if err != nil || fmt.Sprintf("%#v", first) != fmt.Sprintf("%#v", second) {
			t.Fatalf("accepted input parsed differently the second time (err %v):\n%#v\n%#v", err, first, second)
		}
	})
}

// FuzzParseConfigReuse is the differential check of token reuse: for any
// text, parsing with the default configuration's reference tokens must
// give exactly what parsing without them gives — the same result, or an
// error with the same text. It is seeded with the baseline, with the
// four edits that shift lines against the reference (a typo'd line, an
// inserted line, a deleted line and a moved "}"), and with rejections
// around the reference's first and last lines.
func FuzzParseConfigReuse(f *testing.F) {
	s, err := New(8080)
	if err != nil {
		f.Fatal(err)
	}
	base := string(s.DefaultConfig()[ConfigFile])
	for _, conf := range []string{base, "", "}\n", base + "}\n", strings.TrimSuffix(base, "}\n")} {
		f.Add(conf)
	}
	for _, edit := range reuseEdits {
		f.Add(edit.apply(base))
	}
	ref := newReference(base)
	f.Fuzz(func(t *testing.T, conf string) {
		want, wantErr := parseConfig(conf)
		got, gotErr := parseLines([]byte(conf), ref)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error with reuse %v, without %v", gotErr, wantErr)
		}
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("parse with reuse differs:\n%#v\n%#v", got, want)
		}
	})
}
