// Package benchfixture provides the synthetic multi-file configuration
// shared by the engine- and facade-level injection benchmarks: 32 kv
// files of 32 directives each (1024 scenarios, one value flip per
// directive, each dirtying exactly one file), against a SUT that accepts
// everything instantly. Keeping the fixture in one place stops the two
// benchmark families from drifting apart.
package benchfixture

import (
	"fmt"

	"conferr/internal/confnode"
	"conferr/internal/formats"
	"conferr/internal/formats/kv"
	"conferr/internal/scenario"
	"conferr/internal/suts"
	"conferr/internal/template"
	"conferr/internal/view"
)

// Files and DirsPerFile shape the synthetic configuration (~1k directives
// total).
const (
	Files       = 32
	DirsPerFile = 32
)

// FileName names the i-th synthetic configuration file.
func FileName(i int) string { return fmt.Sprintf("synth%02d.conf", i) }

// System is the accept-all SUT: the benchmarks isolate engine overhead
// from SUT behaviour.
type System struct{}

// Name implements suts.System.
func (System) Name() string { return "synthetic" }

// DefaultConfig implements suts.System.
func (System) DefaultConfig() suts.Files {
	files := make(suts.Files, Files)
	for f := 0; f < Files; f++ {
		data := make([]byte, 0, DirsPerFile*24)
		for d := 0; d < DirsPerFile; d++ {
			data = append(data, fmt.Sprintf("param_%02d_%02d = value%d\n", f, d, d)...)
		}
		files[FileName(f)] = data
	}
	return files
}

// Start implements suts.System.
func (System) Start(suts.Files) error { return nil }

// Stop implements suts.System.
func (System) Stop() error { return nil }

// Formats maps every synthetic file to the kv format.
func Formats() map[string]formats.Format {
	fm := make(map[string]formats.Format, Files)
	for f := 0; f < Files; f++ {
		fm[FileName(f)] = kv.Format{}
	}
	return fm
}

// Gen emits one value-flip scenario per directive on the struct view. It
// satisfies core.Generator without importing core, so the engine's
// in-package benchmarks can use it too.
type Gen struct{}

// Name identifies the generator.
func (Gen) Name() string { return "synthetic" }

// View returns the struct view the scenarios apply to.
func (Gen) View() view.View { return view.StructView{} }

// Generate enumerates the value-flip scenarios.
func (Gen) Generate(s *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(Gen{}.GenerateStream(s))
}

// GenerateStream yields the value-flip scenarios lazily, in Generate's
// order; it satisfies core.StreamingGenerator structurally.
func (Gen) GenerateStream(s *confnode.Set) scenario.Source {
	return Gen{}.GenerateWalk(s).Source()
}

// GenerateWalk returns the faultload as a walk over GenerateStream's
// positions (scenario.Walk), one per directive: worker k of n builds only
// every n-th directive's scenario and steps over the rest, so sharded
// generation renders nothing it discards. The engine finds the method
// structurally, as it finds GenerateStream.
func (Gen) GenerateWalk(s *confnode.Set) scenario.Walk {
	return func(pos int, decide func(int) scenario.Step, yield func(scenario.Scenario) bool) (int, bool) {
		for _, name := range s.Names() {
			for d := 0; d < s.Get(name).NumChildren(); d, pos = d+1, pos+1 {
				switch decide(pos) {
				case scenario.Skip:
					continue
				case scenario.Stop:
					return pos, false
				}
				ref := template.Ref{File: name, Indices: []int{d}}
				sc := scenario.Scenario{
					ID:    fmt.Sprintf("synthetic/%s/%d", name, d),
					Class: "synthetic",
					Apply: func(set *confnode.Set) error {
						n, err := ref.Resolve(set)
						if err != nil {
							return err
						}
						n.Value = "mutated"
						return nil
					},
				}
				if !yield(sc) {
					return pos + 1, false
				}
			}
		}
		return pos, true
	}
}
