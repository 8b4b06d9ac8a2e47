package conferr

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/core"
	"conferr/internal/scenario"
)

// purityTestPort is the primary port every target in this file is built
// at. Nothing binds it: the test only parses default configurations.
const purityTestPort = 25961

// TestGeneratorsArePure enumerates every generator the program builds
// twice over one frozen view set and requires the two enumerations to
// agree position by position: ID, class, description and the nodes Apply
// writes on a copy-on-write clone of the view set. Purity is
// core.Generator's contract, and the engine rests on it: every worker,
// in process or on a remote dist worker, derives its own shard of the
// faultload by enumerating it again.
//
// It covers every cell generatorCells builds.
func TestGeneratorsArePure(t *testing.T) {
	registerTestEntries(t)
	for _, c := range generatorCells(t) {
		t.Run(c.name, func(t *testing.T) {
			a := &cloneApplier{base: purityViewSet(t, c.system, c.gen)}
			var first []fingerprint
			enumerateFingerprints(t, c.gen, a, func(fp fingerprint) { first = append(first, fp) })
			i := 0
			enumerateFingerprints(t, c.gen, a, func(fp fingerprint) {
				if i >= len(first) {
					t.Fatalf("second enumeration runs past the first's %d scenarios", len(first))
				}
				if fp != first[i] {
					t.Fatalf("position %d differs between enumerations:\n first %+v\nsecond %+v", i, first[i], fp)
				}
				i++
			})
			if i != len(first) {
				t.Fatalf("second enumeration yields %d scenarios, the first %d", i, len(first))
			}
		})
	}
}

// TestFaultloadDigests pins every faultload TestGeneratorsArePure
// enumerates to testdata/faultload-digests.golden, one line per cell: its
// name, its scenario count and the SHA-256 of its fingerprints in
// order. A change that moves one scenario's ID, class, description or
// written bytes, or reorders two, changes its cell's line. Regenerate the
// golden only for an intended faultload change, by copying the "got"
// block the failure prints, less its indentation, into the file.
func TestFaultloadDigests(t *testing.T) {
	var got strings.Builder
	for _, c := range generatorCells(t) {
		a := &cloneApplier{base: purityViewSet(t, c.system, c.gen)}
		h := sha256.New()
		n := 0
		enumerateFingerprints(t, c.gen, a, func(fp fingerprint) {
			for _, f := range []string{fp.id, fp.class, fp.desc, fp.applied} {
				fmt.Fprintf(h, "%d:%s", len(f), f)
			}
			n++
		})
		fmt.Fprintf(&got, "%s %d %x\n", c.name, n, h.Sum(nil))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "faultload-digests.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("faultload digests differ from testdata/faultload-digests.golden\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// generatorCell is one faultload: a generator over a system's default
// configuration.
type generatorCell struct {
	name, system string
	gen          Generator
}

// generatorCells builds every generator the program builds: every
// registered system × plugin pair under the default, PerModel,
// PerDirective and PerClass options, Table 1's cells (directive
// deletions, sampled or not, and capped typos), the edit benchmark's
// generator and the borrow generator.
func generatorCells(t *testing.T) []generatorCell {
	t.Helper()
	var cells []generatorCell
	for _, o := range []struct {
		label string
		opts  GeneratorOptions
	}{
		{"default", GeneratorOptions{Seed: DefaultSeed}},
		{"per-model", GeneratorOptions{Seed: DefaultSeed, PerModel: 4}},
		{"per-directive", GeneratorOptions{Seed: DefaultSeed, PerDirective: 2}},
		{"per-class", GeneratorOptions{Seed: DefaultSeed, PerClass: 4}},
	} {
		entries, _, err := MatrixEntries(RegisteredTargets(), RegisteredGenerators(), o.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			gf, err := LookupGenerator(e.Plugin)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := gf(e.Options)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, generatorCell{o.label + "/" + e.System + "/" + e.Plugin, e.System, gen})
		}
	}
	for _, m := range table1Mixes {
		for i, c := range m.cells(DefaultSeed) {
			cells = append(cells, generatorCell{fmt.Sprintf("table1/%s/%d-%s", c.system, i, c.gen.Name()), c.system, c.gen})
		}
	}
	cells = append(cells, generatorCell{"edit-benchmark/postgres", "postgres", EditBenchmarkGenerator([]Edit{
		{Directive: "max_connections", NewValue: "200"},
		{Directive: "shared_buffers", NewValue: "64MB"},
	}, DefaultSeed, 5)})
	donor, err := PostgresTargetAt(purityTestPort)
	if err != nil {
		t.Fatal(err)
	}
	borrow, err := BorrowGenerator(donor, DefaultSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, generatorCell{"borrow/mysql", "mysql", borrow})
	return cells
}

// fingerprint is what a scenario is: its ID, class and description, and
// the nodes its Apply writes.
type fingerprint struct{ id, class, desc, applied string }

// enumerateFingerprints streams gen's faultload over a.base and visits
// every scenario's fingerprint in order.
func enumerateFingerprints(t *testing.T, gen Generator, a *cloneApplier, visit func(fingerprint)) {
	t.Helper()
	core.StreamOf(gen, a.base)(func(sc scenario.Scenario, err error) bool {
		if err != nil {
			t.Fatal(err)
		}
		visit(fingerprint{sc.ID, sc.Class, sc.Description, a.apply(sc)})
		return true
	})
}

// purityViewSet parses system's default configuration at purityTestPort
// and maps it into gen's view, frozen as a campaign freezes it.
func purityViewSet(t *testing.T, system string, gen Generator) *confnode.Set {
	t.Helper()
	tf, err := LookupTarget(system)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tf(purityTestPort)
	if err != nil {
		t.Fatal(err)
	}
	files := st.System.DefaultConfig()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	sysSet := confnode.NewSet()
	for _, name := range names {
		root, err := st.Target.Formats[name].Parse(name, files[name])
		if err != nil {
			t.Fatal(err)
		}
		sysSet.Put(name, root)
	}
	viewSet, err := gen.View().Forward(sysSet)
	if err != nil {
		t.Fatal(err)
	}
	viewSet.Freeze()
	return viewSet
}

// cloneApplier applies scenarios to copy-on-write clones of a frozen base
// set and renders what each one wrote.
type cloneApplier struct {
	base  *confnode.Set
	set   *confnode.Set
	arena confnode.Arena
	dirty []string
	buf   []byte
}

// apply runs sc on a fresh clone of the base and returns, for every file
// it touched, each node that is not the base's own node at its position:
// its index, kind, name, value, attributes and child count. Nodes the
// scenario left shared with the base render nothing, so a typo renders a
// few nodes, not the file.
func (a *cloneApplier) apply(sc scenario.Scenario) string {
	a.arena.Reset()
	a.set = a.base.TrackedInto(a.set, &a.arena)
	if err := sc.Apply(a.set); err != nil {
		return "error: " + err.Error()
	}
	a.dirty = a.set.SealAppend(a.dirty[:0])
	buf := a.buf[:0]
	for _, name := range a.dirty {
		buf = append(buf, name...)
		buf = renderChanged(buf, a.base.Get(name), a.set.Get(name))
	}
	a.buf = buf
	return string(buf)
}

func renderChanged(buf []byte, was, n *confnode.Node) []byte {
	if was == n {
		return buf
	}
	if n == nil {
		return append(buf, " gone;"...)
	}
	buf = append(buf, ' ')
	buf = strconv.AppendQuote(buf, n.String())
	buf = strconv.AppendInt(buf, int64(n.NumChildren()), 10)
	buf = append(buf, '[')
	for i := range max(n.NumChildren(), numChildren(was)) {
		var w *confnode.Node
		if was != nil {
			w = was.Child(i)
		}
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = renderChanged(buf, w, n.Child(i))
	}
	return append(buf, ']')
}

func numChildren(n *confnode.Node) int {
	if n == nil {
		return 0
	}
	return n.NumChildren()
}
