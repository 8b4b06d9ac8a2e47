package nginxconf

import (
	"bytes"
	"testing"
)

// FuzzParseSerialize checks parse∘serialize stability on arbitrary input.
func FuzzParseSerialize(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte("a {\nb {\nx 1;\n}\n}\n"))
	f.Add([]byte("x 1; # trailing\n"))
	f.Add([]byte("}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Format{}.Parse("f", data)
		if err != nil {
			return
		}
		out, err := Format{}.Serialize(doc)
		if err != nil {
			t.Fatalf("Serialize after successful Parse: %v", err)
		}
		doc2, err := Format{}.Parse("f", out)
		if err != nil {
			t.Fatalf("re-Parse: %v\n%q", err, out)
		}
		if !doc.Equal(doc2) {
			t.Fatalf("unstable:\nin: %q\nout: %q", data, out)
		}
	})
}

// FuzzSplice parses, freezes and records an input, changes one directive
// in a path copy and requires SpliceTo to equal SerializeTo.
func FuzzSplice(f *testing.F) {
	f.Add([]byte(sample), uint(3), "off")
	f.Add([]byte("a {\nb {\nx 1;\n}\n}\n"), uint(0), "2")
	f.Add([]byte("x 1; # trailing\ny;\n"), uint(1), "")
	f.Fuzz(func(t *testing.T, data []byte, pick uint, value string) {
		if _, err := (Format{}).Parse("nginx.conf", data); err != nil {
			return
		}
		set, base, spans := frozenBase(t, data)
		paths := directivePaths(set.Get("nginx.conf"), nil)
		if len(paths) == 0 {
			return
		}
		tr := set.TrackedInto(nil, nil)
		n, _ := tr.ResolvePath("nginx.conf", paths[pick%uint(len(paths))])
		n.Value = value
		tr.SealAppend(nil)
		got, want := spliceAndSerialize(t, tr.Get("nginx.conf"), base, spans)
		if !bytes.Equal(got, want) {
			t.Fatalf("SpliceTo = %q, want %q", got, want)
		}
	})
}
