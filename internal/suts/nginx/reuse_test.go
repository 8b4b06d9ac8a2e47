package nginx

import (
	"strings"
	"testing"
)

// reuseEdit is one textual edit of the baseline configuration.
type reuseEdit struct {
	name  string
	apply func(string) string
}

// reuseEdits are the edits that move lines against the reference: a
// same-length typo, an insertion, a deletion and a "}" moved up past a
// directive.
var reuseEdits = []reuseEdit{
	{"typo", func(c string) string { return strings.Replace(c, "sendfile on;", "sendfiel on;", 1) }},
	{"insert", func(c string) string {
		return strings.Replace(c, "    gzip on;\n", "    gzip on;\n    gzip_vary on;\n", 1)
	}},
	{"delete", func(c string) string { return strings.Replace(c, "    tcp_nopush on;\n", "", 1) }},
	{"move brace", func(c string) string {
		return strings.Replace(c, "            expires 30d;\n        }\n", "        }\n            expires 30d;\n", 1)
	}},
}

// lineMatch returns the reference token ref.match finds for line k of
// conf, checking that it reports the line's true end.
func lineMatch(t *testing.T, ref *reference, conf string, k int) *token {
	t.Helper()
	lines := strings.Split(conf, "\n")
	start := 0
	for _, l := range lines[:k] {
		start += len(l) + 1
	}
	tok, end := ref.match([]byte(conf), start, k)
	if tok != nil && end != start+len(lines[k]) {
		t.Errorf("line %d: match ends at %d, want %d", k, end, start+len(lines[k]))
	}
	return tok
}

// missed returns the indices of conf's lines that ref has no token for.
func missed(t *testing.T, ref *reference, conf string) []int {
	t.Helper()
	var out []int
	for k := range strings.Split(conf, "\n") {
		if lineMatch(t, ref, conf, k) == nil {
			out = append(out, k)
		}
	}
	return out
}

// TestReferenceReuseSameIndex: a line whose text equals the reference
// line at its index reuses that line's token, so a typo tokenizes only
// the line it wrote. An insertion or deletion reuses the lines above it;
// the lines it shifts are tokenized afresh.
func TestReferenceReuseSameIndex(t *testing.T) {
	s, err := New(8080)
	if err != nil {
		t.Fatal(err)
	}
	base := string(s.DefaultConfig()[ConfigFile])
	ref := newReference(base)
	lineOf := func(conf, text string) int {
		return strings.Count(conf[:strings.Index(conf, text)], "\n")
	}
	if m := missed(t, ref, base); len(m) != 0 {
		t.Fatalf("baseline misses lines %v", m)
	}

	typo := reuseEdits[0].apply(base)
	k := lineOf(typo, "sendfiel")
	if m := missed(t, ref, typo); len(m) != 1 || m[0] != k {
		t.Errorf("typo: missed lines %v, want only the typo'd line %d", m, k)
	}
	for j := range strings.Split(typo, "\n") {
		if tok := lineMatch(t, ref, typo, j); j != k && tok != &ref.toks[j] {
			t.Errorf("typo: line %d does not reuse reference token %d", j, j)
		}
	}

	ins := reuseEdits[1].apply(base)
	k = lineOf(ins, "gzip_vary")
	for j := 0; j < k; j++ {
		if tok := lineMatch(t, ref, ins, j); tok != &ref.toks[j] {
			t.Errorf("insert: line %d above the insertion does not reuse reference token %d", j, j)
		}
	}

	moved := reuseEdits[3].apply(base)
	if m := missed(t, ref, moved); len(m) != 2 {
		t.Errorf("move brace: missed lines %v, want the two swapped lines", m)
	}
}
