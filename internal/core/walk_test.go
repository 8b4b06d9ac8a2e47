package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/formats"
	"conferr/internal/formats/apacheconf"
	"conferr/internal/formats/nginxconf"
	"conferr/internal/plugins/structural"
	"conferr/internal/plugins/typo"
	"conferr/internal/scenario"
	"conferr/internal/suts"
	"conferr/internal/suts/httpd"
	"conferr/internal/suts/nginx"
	"conferr/internal/view"
)

// viewSetOf returns gen's view of the default configuration of a
// simulator built at a fixed port (the typo faultload typos the port
// digits), frozen as a campaign freezes it.
func viewSetOf(tb testing.TB, system string, gen Generator) *confnode.Set {
	tb.Helper()
	var (
		sys  suts.System
		file string
		f    formats.Format
		err  error
	)
	switch system {
	case "nginx":
		sys, err = nginx.New(18080)
		file, f = nginx.ConfigFile, nginxconf.Format{}
	case "apache":
		sys, err = httpd.New(18081)
		file, f = httpd.ConfigFile, apacheconf.Format{}
	}
	if err != nil {
		tb.Fatal(err)
	}
	c := &Campaign{Target: &Target{System: sys, Formats: map[string]formats.Format{file: f}}, Generator: gen}
	fl, err := c.generateBase()
	if err != nil {
		tb.Fatal(err)
	}
	return fl.viewSet
}

// applier renders what a scenario's Apply writes over a frozen base set.
type applier struct {
	base  *confnode.Set
	set   *confnode.Set
	arena confnode.Arena
	dirty []string
}

// bytes appends to buf every node of the mutated set that is not the
// base's own node, with its child index, kind, name, value and child
// count. A typo path-copies one word and its ancestors, so this renders a
// few nodes, not the file.
func (a *applier) bytes(buf []byte, sc scenario.Scenario) []byte {
	a.arena.Reset()
	a.set = a.base.TrackedInto(a.set, &a.arena)
	if err := sc.Apply(a.set); err != nil {
		return append(buf, "error: "+err.Error()...)
	}
	a.dirty = a.set.SealAppend(a.dirty[:0])
	for _, name := range a.dirty {
		buf = append(buf, name...)
		buf = changedNodes(buf, a.base.Get(name), a.set.Get(name))
	}
	return buf
}

func changedNodes(buf []byte, was, n *confnode.Node) []byte {
	if was == n {
		return buf
	}
	if n == nil {
		return append(buf, " gone;"...)
	}
	buf = append(buf, ' ', byte(n.Kind))
	buf = strconv.AppendQuote(buf, n.Name)
	buf = strconv.AppendQuote(buf, n.Value)
	buf = strconv.AppendInt(buf, int64(n.NumChildren()), 10)
	buf = append(buf, '[')
	for i := range max(n.NumChildren(), lenOf(was)) {
		var w *confnode.Node
		if was != nil {
			w = was.Child(i)
		}
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = changedNodes(buf, w, n.Child(i))
	}
	return append(buf, ']')
}

func lenOf(n *confnode.Node) int {
	if n == nil {
		return 0
	}
	return n.NumChildren()
}

// TestShardWalkMatchesStride pins the walked shard to the filtered
// stride it replaces: for every shard k of n, every scenario a repeated,
// limited faultload's shard (shardOf) yields sits where the stride puts it
// — position j*n+k of the unsharded stream, whose scenario is round
// pos/m's copy of scenario pos%m of one enumeration of length m — and
// equals it in ID, class, description and the bytes its Apply writes.
// Faultloads that cannot walk (a sampled typo plugin, the structural
// plugin) take the filtered stride and must match the same way.
//
// nginx's typo faultload and a Token-restricted one run rounds {1, 3,
// 7} × limits {0, 1, m−1, m, m+1, 2m+3, none} × n 1..5, every k. apache's
// (m = 36k) runs the limits around its one round's end; the fallbacks,
// which render every scenario on every shard, run rounds {1, 3}.
func TestShardWalkMatchesStride(t *testing.T) {
	// A limit is ms·m + plus scenarios; none has ms < 0.
	type limitAt struct{ ms, plus int }
	none := limitAt{-1, 0}
	edges := []limitAt{{0, 0}, {0, 1}, {1, -1}, {1, 0}, {1, 1}}
	all := append(edges[:len(edges):len(edges)], limitAt{2, 3}, none)
	cases := []struct {
		name   string
		system string
		gen    Generator
		walks  bool
		rounds []int
		limits []limitAt
	}{
		{"nginx/typo", "nginx", &typo.Plugin{}, true, []int{1, 3, 7}, all},
		{"nginx/typo-names", "nginx", &typo.Plugin{Token: view.TokenName}, true, []int{1, 3, 7}, all},
		{"apache/typo", "apache", &typo.Plugin{}, true, []int{1}, edges},
		{"nginx/typo-sampled", "nginx", &typo.Plugin{Token: view.TokenName, PerDirective: 2, Seed: 7}, false, []int{1, 3}, all},
		{"nginx/structural", "nginx", &structural.Plugin{Sections: true}, false, []int{1, 3}, all},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			set := viewSetOf(t, c.system, c.gen)
			a := &applier{base: set}
			type fingerprint struct{ id, class, desc, applied string }
			var round []fingerprint
			StreamOf(c.gen, set)(func(sc scenario.Scenario, err error) bool {
				if err != nil {
					t.Fatal(err)
				}
				round = append(round, fingerprint{sc.ID, sc.Class, sc.Description, string(a.bytes(nil, sc))})
				return true
			})
			m := len(round)
			if m == 0 {
				t.Fatal("empty faultload")
			}
			var buf []byte
			prefixes := make([]string, 7)
			for r := range prefixes {
				prefixes[r] = fmt.Sprintf("r%03d/", r)
			}
			for _, rounds := range c.rounds {
				for _, at := range c.limits {
					gen := RepeatGenerator(c.gen, rounds)
					total, limit := rounds*m, at.ms*m+at.plus
					if at != none {
						gen = LimitGenerator(gen, limit)
						total = min(total, limit)
					}
					if walks := walkOf(gen, set) != nil; walks != c.walks {
						t.Fatalf("rounds %d limit %d: walks = %v, want %v", rounds, limit, walks, c.walks)
					}
					for n := 1; n <= 5; n++ {
						for k := range n {
							j := 0
							shardOf(gen, set, k, n)(func(sc scenario.Scenario, err error) bool {
								if err != nil {
									t.Fatal(err)
								}
								pos := j*n + k
								j++
								if pos >= total {
									t.Fatalf("rounds %d limit %d shard %d/%d: scenario at position %d past the end %d", rounds, limit, k, n, pos, total)
								}
								want := round[pos%m]
								buf = a.bytes(buf[:0], sc)
								id, ok := strings.CutPrefix(sc.ID, prefixes[pos/m])
								if !ok || id != want.id || sc.Class != want.class || sc.Description != want.desc || string(buf) != want.applied {
									t.Fatalf("rounds %d limit %d shard %d/%d position %d:\n got %q %q %q %q\nwant round %d of %+v",
										rounds, limit, k, n, pos, sc.ID, sc.Class, sc.Description, buf, pos/m, want)
								}
								return true
							})
							if want := (total - k + n - 1) / n; j != want {
								t.Fatalf("rounds %d limit %d shard %d/%d: %d scenarios, want %d", rounds, limit, k, n, j, want)
							}
						}
					}
				}
			}
		})
	}
}

// shardedTypo is the nginx-reload workload's faultload: nginx's typo
// faultload over 107 rounds, cut at 20,000 scenarios.
func shardedTypo(tb testing.TB) (Generator, *confnode.Set) {
	gen := LimitGenerator(RepeatGenerator(&typo.Plugin{}, 107), 20000)
	return gen, viewSetOf(tb, "nginx", gen)
}

// walkAllShards pulls every shard of n in turn, as n workers together
// do, and returns how many scenarios they yielded.
func walkAllShards(gen Generator, set *confnode.Set, n int) int {
	count := 0
	for k := range n {
		shardOf(gen, set, k, n)(func(scenario.Scenario, error) bool {
			count++
			return true
		})
	}
	return count
}

// BenchmarkGenerateShard measures generation per scenario run when n
// workers each derive their own shard: with a walk, every shard renders
// only its own scenarios, so the cost per scenario run stays near the
// one-shard cost instead of growing n-fold.
func BenchmarkGenerateShard(b *testing.B) {
	gen, set := shardedTypo(b)
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			scens := 0
			for range b.N {
				scens += walkAllShards(gen, set, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scens), "ns/scenario")
		})
	}
}

// TestGenerateShardAllocs guards the walk: allocations per scenario run
// at 4 shards stay within 1.25× those at 1 shard. A filtered stride,
// which renders the whole faultload on every shard, reads about 4×.
func TestGenerateShardAllocs(t *testing.T) {
	gen, set := shardedTypo(t)
	perScenario := func(n int) float64 {
		var scens int
		allocs := testing.AllocsPerRun(2, func() { scens = walkAllShards(gen, set, n) })
		return allocs / float64(scens)
	}
	one, four := perScenario(1), perScenario(4)
	t.Logf("allocs per scenario run: %.2f at 1 shard, %.2f at 4 shards (%.2fx)", one, four, four/one)
	if four > 1.25*one {
		t.Errorf("allocs per scenario run at 4 shards = %.2f, more than 1.25x the %.2f at 1 shard", four, one)
	}
}
