package typo

import (
	"fmt"
	"strings"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/formats/nginxconf"
	"conferr/internal/suts/nginx"
	"conferr/internal/template"
	"conferr/internal/view"
)

// TestNginxScenarioStringsMatchFmt pins the ID and Description of every
// scenario of the unsampled nginx/typo faultload to the fmt forms
// recorded profiles carry: "class/file#i.j/seq" and "<variant> on
// <node>", with a node rendered as kind, name and =value, each part
// truncated to 40 bytes.
func TestNginxScenarioStringsMatchFmt(t *testing.T) {
	s, err := nginx.New(28080)
	if err != nil {
		t.Fatal(err)
	}
	root, err := nginxconf.Format{}.Parse(nginx.ConfigFile, s.DefaultConfig()[nginx.ConfigFile])
	if err != nil {
		t.Fatal(err)
	}
	sys := confnode.NewSet()
	sys.Put(nginx.ConfigFile, root)
	words, err := view.WordView{}.Forward(sys)
	if err != nil {
		t.Fatal(err)
	}

	truncate := func(s string) string {
		if len(s) > 40 {
			return s[:37] + "..."
		}
		return s
	}
	describe := func(n *confnode.Node) string {
		s := n.Kind.String()
		if n.Name != "" {
			s += " " + truncate(n.Name)
		}
		if n.Value != "" {
			s += "=" + truncate(n.Value)
		}
		return s
	}
	fmtRef := func(r template.Ref) string {
		parts := make([]string, 0, len(r.Indices))
		for _, i := range r.Indices {
			parts = append(parts, fmt.Sprint(i))
		}
		return r.File + "#" + strings.Join(parts, ".")
	}

	p := &Plugin{}
	var want []string
	for _, m := range p.models() {
		class := "typo/" + m.Name()
		seq := 0
		words.Walk(func(file string, root *confnode.Node) {
			root.Walk(func(n *confnode.Node) bool {
				if n.Kind != confnode.KindWord {
					return true
				}
				ref := fmtRef(template.RefOf(file, n))
				for _, v := range template.Variants(m, n) {
					want = append(want, fmt.Sprintf("%s/%s/%d", class, ref, seq)+"\n"+
						fmt.Sprintf("%s on %s", v.Description, describe(n)))
					seq++
				}
				return true
			})
		})
	}

	k := 0
	for sc, err := range p.GenerateStream(words) {
		if err != nil {
			t.Fatal(err)
		}
		if k >= len(want) {
			t.Fatalf("more than %d scenarios", len(want))
		}
		if got := sc.ID + "\n" + sc.Description; got != want[k] {
			t.Errorf("scenario %d = %q, want %q", k, got, want[k])
		}
		k++
	}
	if k != len(want) || k < 1000 {
		t.Errorf("%d scenarios, want %d (at least 1000)", k, len(want))
	}
}
