package nginxconf

import (
	"bytes"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/formats"
)

// frozenBase parses data into a frozen one-file set and records its
// serialization's spans.
func frozenBase(t testing.TB, data []byte) (*confnode.Set, []byte, formats.Spans) {
	t.Helper()
	doc, err := Format{}.Parse("nginx.conf", data)
	if err != nil {
		t.Fatal(err)
	}
	set := confnode.NewSet()
	set.Put("nginx.conf", doc)
	set.Freeze()
	var b bytes.Buffer
	spans := formats.Spans{}
	if err := (Format{}).SerializeSpans(&b, doc, spans); err != nil {
		t.Fatal(err)
	}
	return set, b.Bytes(), spans
}

// directivePaths returns the child-index path of every directive below n.
func directivePaths(n *confnode.Node, prefix []int) [][]int {
	var out [][]int
	for i, c := range n.Children() {
		p := append(append([]int(nil), prefix...), i)
		switch c.Kind {
		case confnode.KindDirective:
			out = append(out, p)
		case confnode.KindSection:
			out = append(out, directivePaths(c, p)...)
		}
	}
	return out
}

// spliceAndSerialize returns root spliced against the base and root
// serialized in full.
func spliceAndSerialize(t testing.TB, root *confnode.Node, base []byte, spans formats.Spans) (spliced, full []byte) {
	t.Helper()
	var s, f bytes.Buffer
	if err := (Format{}).SpliceTo(&s, root, base, spans); err != nil {
		t.Fatal(err)
	}
	if err := (Format{}).SerializeTo(&f, root); err != nil {
		t.Fatal(err)
	}
	return s.Bytes(), f.Bytes()
}

func TestSerializeSpansRecordsSerializeBytes(t *testing.T) {
	set, base, spans := frozenBase(t, []byte(sample))
	if string(base) != sample {
		t.Fatalf("SerializeSpans = %q, want the round trip %q", base, sample)
	}
	// Every node below the root has a span, and a directive's span is its
	// own line.
	listen := set.Get("nginx.conf").ChildByName("http").ChildByName("server").ChildByName("listen")
	if s, ok := spans[listen]; !ok || string(base[s.Start:s.End]) != "        listen 8080;\n" || s.Depth != 2 {
		t.Errorf("listen span = %+v (%q)", s, base[s.Start:s.End])
	}
	count := 0
	set.Get("nginx.conf").Walk(func(*confnode.Node) bool { count++; return true })
	if len(spans) != count-1 {
		t.Errorf("recorded %d spans for %d nodes below the root", len(spans), count-1)
	}
}

func TestSpliceBaselineIsBaseline(t *testing.T) {
	set, base, spans := frozenBase(t, []byte(sample))
	got, _ := spliceAndSerialize(t, set.Get("nginx.conf"), base, spans)
	if !bytes.Equal(got, base) {
		t.Errorf("SpliceTo(baseline) = %q, want %q", got, base)
	}
}

// TestSpliceEveryDirective changes each baseline directive in a path copy
// (the injection pipeline's shape: copied ancestors, shared siblings) and
// requires the splice to equal the full serialization.
func TestSpliceEveryDirective(t *testing.T) {
	set, base, spans := frozenBase(t, []byte(sample))
	paths := directivePaths(set.Get("nginx.conf"), nil)
	if len(paths) < 10 {
		t.Fatalf("only %d directives found", len(paths))
	}
	for _, p := range paths {
		tr := set.TrackedInto(nil, nil)
		n, _ := tr.ResolvePath("nginx.conf", p)
		n.Value += "x"
		n.Name = "typo_" + n.Name
		tr.SealAppend(nil)
		got, want := spliceAndSerialize(t, tr.Get("nginx.conf"), base, spans)
		if !bytes.Equal(got, want) {
			t.Errorf("directive %v: SpliceTo = %q, want %q", p, got, want)
		}
		if bytes.Equal(got, base) {
			t.Errorf("directive %v: splice kept the baseline bytes", p)
		}
	}
}

// TestSpliceMovedNodeRendersAtNewDepth: a recorded node without
// AttrIndent is indented by depth, so found at another depth it must be
// rendered again, not copied.
func TestSpliceMovedNodeRendersAtNewDepth(t *testing.T) {
	doc := confnode.New(confnode.KindDocument, "nginx.conf")
	sec := confnode.New(confnode.KindSection, "events")
	d := confnode.NewValued(confnode.KindDirective, "multi_accept", "on")
	sec.Append(d)
	doc.Append(sec)
	doc.Freeze()
	var b bytes.Buffer
	spans := formats.Spans{}
	if err := (Format{}).SerializeSpans(&b, doc, spans); err != nil {
		t.Fatal(err)
	}
	if s := spans[d]; string(b.Bytes()[s.Start:s.End]) != "    multi_accept on;\n" {
		t.Fatalf("recorded %q", b.Bytes()[s.Start:s.End])
	}
	moved := confnode.New(confnode.KindDocument, "nginx.conf")
	moved.Append(d)
	got, want := spliceAndSerialize(t, moved, b.Bytes(), spans)
	if string(want) != "multi_accept on;\n" || !bytes.Equal(got, want) {
		t.Errorf("moved node: SpliceTo = %q, SerializeTo = %q, want both %q", got, want, "multi_accept on;\n")
	}
}

// TestSerializeToAllocs pins SerializeTo of a parsed tree into a grown
// buffer at zero allocations: every parsed node carries its indent, so
// none builds a depth-based one.
func TestSerializeToAllocs(t *testing.T) {
	doc, err := Format{}.Parse("nginx.conf", []byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.Grow(2 * len(sample))
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		if err := (Format{}).SerializeTo(&b, doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SerializeTo allocs/op = %v, want 0", allocs)
	}
}
