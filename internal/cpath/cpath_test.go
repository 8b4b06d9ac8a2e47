package cpath

import (
	"errors"
	"strings"
	"testing"

	"conferr/internal/confnode"
)

// testTree builds:
//
//	document(httpd.conf)
//	  directive(Listen) = 80
//	  section(VirtualHost) @arg=*:80
//	    directive(ServerName) = a.example.com
//	    directive(DocumentRoot) = /var/www/a
//	  section(VirtualHost) @arg=*:81
//	    directive(ServerName) = b.example.com
//	    section(Directory) @arg=/var/www/b
//	      directive(Options) = None
func testTree() *confnode.Node {
	doc := confnode.New(confnode.KindDocument, "httpd.conf")
	doc.Append(confnode.NewValued(confnode.KindDirective, "Listen", "80"))
	v1 := confnode.New(confnode.KindSection, "VirtualHost")
	v1.SetAttr("arg", "*:80")
	v1.Append(
		confnode.NewValued(confnode.KindDirective, "ServerName", "a.example.com"),
		confnode.NewValued(confnode.KindDirective, "DocumentRoot", "/var/www/a"),
	)
	v2 := confnode.New(confnode.KindSection, "VirtualHost")
	v2.SetAttr("arg", "*:81")
	dir := confnode.New(confnode.KindSection, "Directory")
	dir.SetAttr("arg", "/var/www/b")
	dir.Append(confnode.NewValued(confnode.KindDirective, "Options", "None"))
	v2.Append(
		confnode.NewValued(confnode.KindDirective, "ServerName", "b.example.com"),
		dir,
	)
	doc.Append(v1, v2)
	return doc
}

func names(nodes []*confnode.Node) []string {
	var out []string
	for _, n := range nodes {
		label := n.Name
		if n.Value != "" {
			label += "=" + n.Value
		}
		out = append(out, label)
	}
	return out
}

func selectNames(t *testing.T, expr string, root *confnode.Node) []string {
	t.Helper()
	e, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	return names(e.Select(root))
}

func TestSelect(t *testing.T) {
	root := testTree()
	tests := []struct {
		expr string
		want []string
	}{
		{"//directive", []string{
			"Listen=80", "ServerName=a.example.com", "DocumentRoot=/var/www/a",
			"ServerName=b.example.com", "Options=None",
		}},
		{"/directive", []string{"Listen=80"}},
		{"/section", []string{"VirtualHost", "VirtualHost"}},
		{"/section/directive", []string{
			"ServerName=a.example.com", "DocumentRoot=/var/www/a",
			"ServerName=b.example.com",
		}},
		{"/section//directive", []string{
			"ServerName=a.example.com", "DocumentRoot=/var/www/a",
			"ServerName=b.example.com", "Options=None",
		}},
		{"//section:Directory/directive", []string{"Options=None"}},
		{"//directive:ServerName", []string{"ServerName=a.example.com", "ServerName=b.example.com"}},
		{"//directive[name='Listen']", []string{"Listen=80"}},
		{"//directive[name!='ServerName']", []string{"Listen=80", "DocumentRoot=/var/www/a", "Options=None"}},
		{"//directive[value='None']", []string{"Options=None"}},
		{"//directive[value!='None']", []string{
			"Listen=80", "ServerName=a.example.com", "DocumentRoot=/var/www/a",
			"ServerName=b.example.com",
		}},
		{"//section[@arg='*:81']", []string{"VirtualHost"}},
		{"//section[@arg]", []string{"VirtualHost", "VirtualHost", "Directory"}},
		{"//section[@arg!='*:81']", []string{"VirtualHost", "Directory"}},
		{"//section[@missing]", nil},
		{"/section[1]", []string{"VirtualHost"}},
		{"/section[2]/directive[1]", []string{"ServerName=b.example.com"}},
		{"/section[last()]", []string{"VirtualHost"}},
		{"//directive[last()]", []string{"Options=None"}}, // single origin: overall last; see TestLastSemantics
		{"/*", []string{"Listen=80", "VirtualHost", "VirtualHost"}},
		{"//*:ServerName", []string{"ServerName=a.example.com", "ServerName=b.example.com"}},
		{"/section:'VirtualHost'[@arg='*:80']/directive", []string{
			"ServerName=a.example.com", "DocumentRoot=/var/www/a",
		}},
		{"//section:Nope", nil},
		{"word", nil},
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			got := selectNames(t, tt.expr, root)
			if len(got) == 0 && len(tt.want) == 0 {
				return
			}
			if len(got) != len(tt.want) {
				t.Fatalf("Select(%q) = %v, want %v", tt.expr, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Select(%q) = %v, want %v", tt.expr, got, tt.want)
				}
			}
		})
	}
}

// The "[last()]" semantics: predicates apply within each step evaluation
// per origin node. With axisDescendant from the root there is a single
// origin, so [last()] picks the overall last directive.
func TestLastSemantics(t *testing.T) {
	root := testTree()
	got := selectNames(t, "//directive[last()]", root)
	// Single origin (root), so the last matched descendant directive wins.
	want := []string{"Options=None"}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestRelativeExprIsDescendant(t *testing.T) {
	root := testTree()
	got := selectNames(t, "directive:Options", root)
	if len(got) != 1 || got[0] != "Options=None" {
		t.Fatalf("relative select = %v", got)
	}
}

func TestSelectNilAndEmpty(t *testing.T) {
	e := MustCompile("//directive")
	if e.Select(nil) != nil {
		t.Error("Select(nil) should be nil")
	}
}

func TestDuplicateElimination(t *testing.T) {
	// With nested sections, //section//directive could visit the same
	// node via two origins; ensure results are unique.
	root := testTree()
	e := MustCompile("//section//directive")
	got := e.Select(root)
	seen := map[*confnode.Node]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatalf("duplicate node in results: %s", n)
		}
		seen[n] = true
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"/",
		"//",
		"/section[",
		"/section[0]",
		"/section[abc",
		"/section[@]",
		"/section[@a='x'",
		"/section[@a=x]",
		"/section[foo='x']",
		"/section[name]",
		"/section[name='x]",
		"/section:'unterminated",
		"/section$",
		"/section/",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Compile(%q) error is %T, want *SyntaxError", src, err)
			} else if se.Expr != src {
				t.Errorf("SyntaxError.Expr = %q, want %q", se.Expr, src)
			}
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Compile("/section[")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "cpath: syntax error") {
		t.Errorf("error message %q", err.Error())
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic on bad input")
		}
	}()
	MustCompile("[[")
}

func TestExprString(t *testing.T) {
	const src = "//directive[name='Listen']"
	if got := MustCompile(src).String(); got != src {
		t.Errorf("String() = %q", got)
	}
}

func TestKindAndNameStarEquivalence(t *testing.T) {
	root := testTree()
	a := selectNames(t, "//*", root)
	b := selectNames(t, "//*:*", root)
	if len(a) != len(b) {
		t.Fatalf("//* selected %d, //*:* selected %d", len(a), len(b))
	}
}

func TestUnknownKindNameMatchesNothing(t *testing.T) {
	root := testTree()
	if got := selectNames(t, "//frobnicator", root); got != nil {
		t.Errorf("unknown kind matched %v", got)
	}
}
