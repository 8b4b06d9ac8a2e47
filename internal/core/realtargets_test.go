package core_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"conferr"
	"conferr/internal/confnode"
	"conferr/internal/core"
	"conferr/internal/plugins/editsim"
	"conferr/internal/scenario"
	"conferr/internal/suts"
)

// digestOf serves a registered system's default configuration but
// rejects every start with a digest of the exact bytes it was handed, so
// a record fingerprints one experiment's serialized configuration and no
// SUT runs. Equal records then mean byte-identical configurations.
type digestOf struct{ sys suts.System }

func (d digestOf) Name() string              { return d.sys.Name() }
func (d digestOf) DefaultConfig() suts.Files { return d.sys.DefaultConfig() }
func (d digestOf) Stop() error               { return nil }

func (d digestOf) Start(files suts.Files) error {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%q;", name, files[name])
	}
	return &suts.StartupError{System: d.sys.Name(), Msg: fmt.Sprintf("digest %x", h.Sum64())}
}

// digestTarget builds the registered target's formats around a digestOf
// its simulator.
func digestTarget(tb testing.TB, name string) *core.Target {
	tb.Helper()
	factory, err := conferr.LookupTarget(name)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := factory(0)
	if err != nil {
		tb.Fatal(err)
	}
	return &core.Target{System: digestOf{st.System}, Formats: st.Target.Formats}
}

// registeredGenerator builds a registered generator for a system, or
// reports false when the two do not pair.
func registeredGenerator(tb testing.TB, gen, system string) (core.Generator, bool) {
	tb.Helper()
	factory, err := conferr.LookupGenerator(gen)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := factory(conferr.GeneratorOptions{System: system})
	return g, err == nil
}

// frozenNodes counts the nodes of a subtree that carry the unexported
// frozen bit.
func frozenNodes(n *confnode.Node) int {
	count := 0
	n.Walk(func(m *confnode.Node) bool {
		if reflect.ValueOf(m).Elem().FieldByName("frozen").Bool() {
			count++
		}
		return true
	})
	return count
}

// TestFastPathLeavesBaselinesUntouched guards the path-granular copy:
// a scenario writes through copies of the nodes on one path while their
// siblings stay shared with the campaign's baselines, so an Apply or a
// fold that wrote into a shared node would corrupt every later
// experiment. For every registered target × generator it runs the first
// 300 scenarios through the fast path and then checks that the view set,
// the parsed system set and the fold baseline still equal deep copies
// taken before, and that no copy of them carries the frozen bit.
func TestFastPathLeavesBaselinesUntouched(t *testing.T) {
	const limit = 300
	for _, system := range conferr.RegisteredTargets() {
		for _, genName := range conferr.RegisteredGenerators() {
			gen, ok := registeredGenerator(t, genName, system)
			if !ok {
				continue
			}
			t.Run(system+"/"+genName, func(t *testing.T) {
				fp, src, err := core.OpenFastPath(&core.Campaign{Target: digestTarget(t, system), Generator: gen})
				if err != nil {
					t.Fatal(err)
				}
				snaps := map[string]*confnode.Set{}
				for name, set := range fp.Baselines() {
					snaps[name] = set.Clone()
				}
				n := 0
				for sc, err := range src {
					if err != nil {
						t.Fatal(err)
					}
					if _, err := fp.RunFast(sc); err != nil {
						t.Fatalf("%s: %v", sc.ID, err)
					}
					if n++; n == limit {
						break
					}
				}
				var arena confnode.Arena
				for name, set := range fp.Baselines() {
					if !set.Equal(snaps[name]) {
						t.Errorf("%s changed after %d scenarios", name, n)
					}
					set.Each(func(file string, root *confnode.Node) bool {
						if frozenNodes(root) == 0 {
							t.Errorf("%s %s is not frozen", name, file)
						}
						for label, c := range map[string]*confnode.Node{"Clone": root.Clone(), "CloneInto": root.CloneInto(&arena)} {
							if k := frozenNodes(c); k != 0 {
								t.Errorf("%s of %s %s carries the frozen bit on %d nodes", label, name, file, k)
							}
						}
						return true
					})
				}
			})
		}
	}
}

// nginxEdits is an administration task over the simulated nginx.conf
// that reaches every nesting depth: top-level directives, events and
// http, a server, and the locations inside it.
var nginxEdits = []editsim.Edit{
	{Directive: "worker_processes", NewValue: "worker_count_4"},
	{Directive: "error_log", NewValue: "/var/log/nginx/errors.log"},
	{Directive: "worker_connections", NewValue: "4096"},
	{Directive: "default_type", NewValue: "text/plain"},
	{Directive: "keepalive_timeout", NewValue: "75"},
	{Directive: "client_max_body_size", NewValue: "16m"},
	{Directive: "server_name", NewValue: "shop.example.com"},
	{Directive: "root", NewValue: "/srv/www/shop"},
	{Directive: "index", NewValue: "home.html"},
	{Directive: "error_page", NewValue: "500 /50x.html"},
	{Directive: "autoindex", NewValue: "on"},
	{Directive: "expires", NewValue: "7d"},
	{Directive: "try_files", NewValue: "$uri /fallback.html"},
	{Directive: "access_log", NewValue: "/var/log/nginx/shop.log main"},
}

// TestFastPathMatchesReferenceOnRealTargets extends the equivalence
// contract of TestFastPathMatchesReference to real configurations, where
// path copies run through nested sections: nginx/typo (sections three
// deep), apache/typo and an editsim task on nginx, at least 2,000
// scenarios each spread over the whole faultload, plus bind/semantic,
// whose fold baseline differs from the parsed configuration. runOne and
// runOneReference must agree record for record; the digest system makes
// that byte identity of every experiment's configuration.
func TestFastPathMatchesReferenceOnRealTargets(t *testing.T) {
	typoGen := func(system string) core.Generator {
		g, _ := registeredGenerator(t, "typo", system)
		return g
	}
	semantic, _ := registeredGenerator(t, "semantic", "bind")
	for _, cell := range []struct {
		system, label string
		gen           core.Generator
		min           int
	}{
		{"nginx", "typo", typoGen("nginx"), 2000},
		{"apache", "typo", typoGen("apache"), 2000},
		{"nginx", "editsim", &editsim.Plugin{Edits: nginxEdits, PerEdit: 1000, Seed: 3, IncludeCleanEdit: true}, 2000},
		{"bind", "semantic", semantic, 1},
	} {
		t.Run(cell.system+"/"+cell.label, func(t *testing.T) {
			fp, src, err := core.OpenFastPath(&core.Campaign{Target: digestTarget(t, cell.system), Generator: cell.gen})
			if err != nil {
				t.Fatal(err)
			}
			scens, err := scenario.Collect(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(scens) < cell.min {
				t.Fatalf("faultload has %d scenarios, want at least %d", len(scens), cell.min)
			}
			// Stride through the faultload so every submodel and line is
			// sampled, not just the first model's first lines.
			stride := max(1, len(scens)/2500)
			compared := 0
			for i := 0; i < len(scens); i += stride {
				sc := scens[i]
				got, gerr := fp.RunFast(sc)
				want, werr := fp.RunReference(sc)
				got.Duration, want.Duration = 0, 0
				if got != want || (gerr == nil) != (werr == nil) {
					t.Fatalf("%s:\nfast      %+v (%v)\nreference %+v (%v)", sc.ID, got, gerr, want, werr)
				}
				compared++
			}
			if compared < cell.min {
				t.Fatalf("compared %d scenarios, want at least %d", compared, cell.min)
			}
		})
	}
}
