package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactGolden pins the stdout of the paper artifacts, the
// before/after comparison and one campaign (whose per-class block is
// DetectionByClass) to committed goldens, at one and at four workers:
// the worker count changes wall-clock time, never the bytes. campaign's
// first line names the worker count, so it is compared from the second
// line on. Regenerate a golden only for an intended output change, e.g.
// `go run ./cmd/conferr all -workers 1 > cmd/conferr/testdata/all.golden`.
func TestArtifactGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		banner bool // first line names the worker count
	}{
		{"all.golden", []string{"all"}, false},
		{"table3-extended.golden", []string{"table3", "-extended"}, false},
		{"compare-n4.golden", []string{"compare", "-n", "4"}, false},
		{"campaign-postgres-typo.golden", []string{"campaign", "-system", "postgres", "-plugin", "typo", "-per-model", "5"}, true},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "4"} {
			args := append(append([]string(nil), tc.args...), "-workers", workers)
			var code int
			got := capture(t, func() { code = runT(args...) })
			if code != 0 {
				t.Errorf("%s: exit = %d", strings.Join(args, " "), code)
				continue
			}
			w := string(want)
			if tc.banner {
				got, w = afterFirstLine(got), afterFirstLine(w)
			}
			if got != w {
				t.Errorf("%s: stdout differs from testdata/%s\ngot:\n%s\nwant:\n%s", strings.Join(args, " "), tc.golden, got, w)
			}
		}
	}
}

func afterFirstLine(s string) string {
	_, rest, _ := strings.Cut(s, "\n")
	return rest
}
