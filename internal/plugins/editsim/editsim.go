// Package editsim implements the paper's §5.5 human-error benchmark
// procedure: "a benchmark script … automatically transform[s] initial
// configuration files into new, valid files; afterward, it creates faulty
// configuration files based on these new files … Errors are injected in
// close proximity to the place where the file has been (validly)
// modified, thus aiming to simulate the common way in which errors sneak
// into configurations."
//
// A configuration task is a list of Edits (directive → new valid value).
// For each edit, the plugin generates scenarios that first apply the edit
// and then inject one spelling mistake into the freshly typed value — the
// proximity rule: the typo lands exactly where the administrator was
// working.
package editsim

import (
	"fmt"
	"math/rand"
	"strings"

	"conferr/internal/confnode"
	"conferr/internal/keyboard"
	"conferr/internal/plugins/typo"
	"conferr/internal/scenario"
	"conferr/internal/template"
	"conferr/internal/view"
)

// Edit is one valid configuration change of the simulated administration
// task: set the named directive to a new (valid) value.
type Edit struct {
	// Directive is the name of the directive to change.
	Directive string
	// NewValue is the valid value the administrator intends to type.
	NewValue string
}

// Plugin generates the §5.5 faultload: per edit, PerEdit scenarios each
// applying the edit with one typo in the newly typed value.
type Plugin struct {
	// Edits is the configuration task.
	Edits []Edit
	// PerEdit is the number of faulty variants per edit (the paper ran 20
	// experiments per directive). 0 means 20.
	PerEdit int
	// Seed derives the variant-shuffle RNG, afresh per stream call: the
	// faultload is a pure function of (Seed, edits, configuration), so
	// repeated and sharded enumerations agree exactly.
	Seed int64
	// Layout is the keyboard for substitution/insertion typos; nil means
	// keyboard.Default().
	Layout *keyboard.Layout
	// IncludeCleanEdit adds, per edit, one scenario applying the edit
	// without any typo — a control that must be Ignored (accepted) for
	// the benchmark to be meaningful.
	IncludeCleanEdit bool
}

// Name identifies the plugin.
func (p *Plugin) Name() string { return "editsim" }

// View returns the configuration view the scenarios apply to.
func (p *Plugin) View() view.View { return view.WordView{} }

// Generate enumerates the faultload over the word view of the initial
// configuration.
func (p *Plugin) Generate(wordSet *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(p.GenerateStream(wordSet))
}

// GenerateStream yields the faultload lazily, edit by edit: only one
// edit's shuffled variant pool is ever resident, and the RNG draws happen
// in the same order as the eager path, so both enumerate the identical
// faultload.
func (p *Plugin) GenerateStream(wordSet *confnode.Set) scenario.Source {
	return func(yield func(scenario.Scenario, error) bool) {
		rng := rand.New(rand.NewSource(p.Seed))
		perEdit := p.PerEdit
		if perEdit == 0 {
			perEdit = 20
		}
		models := []template.Mutator{
			typo.Omission{},
			typo.Insertion{Layout: p.Layout},
			typo.Substitution{Layout: p.Layout},
			typo.CaseAlteration{},
			typo.Transposition{},
		}

		for _, edit := range p.Edits {
			lineRef, err := findDirectiveLine(wordSet, edit.Directive)
			if err != nil {
				yield(scenario.Scenario{}, err)
				return
			}
			// The typo corrupts the value the administrator just typed.
			probe := confnode.NewValued(confnode.KindWord, "", edit.NewValue)
			type variant struct {
				model string
				v     template.Variant
			}
			var variants []variant
			for _, m := range models {
				for _, v := range template.Variants(m, probe) {
					variants = append(variants, variant{model: m.Name(), v: v})
				}
			}
			if len(variants) == 0 {
				yield(scenario.Scenario{}, fmt.Errorf("editsim: no typo variants for value %q", edit.NewValue))
				return
			}
			rng.Shuffle(len(variants), func(i, j int) {
				variants[i], variants[j] = variants[j], variants[i]
			})
			n := perEdit
			if n > len(variants) {
				n = len(variants)
			}
			if p.IncludeCleanEdit {
				sc := p.editScenario(edit, lineRef, "clean", -1, template.Variant{
					Description: "apply edit without typo",
					Apply:       func(*confnode.Node) {},
				})
				if !yield(sc, nil) {
					return
				}
			}
			for i := 0; i < n; i++ {
				if !yield(p.editScenario(edit, lineRef, variants[i].model, i, variants[i].v), nil) {
					return
				}
			}
		}
	}
}

// editScenario builds one scenario: apply the edit, then the typo variant.
func (p *Plugin) editScenario(edit Edit, lineRef template.Ref, model string, seq int, v template.Variant) scenario.Scenario {
	class := "editsim/" + model
	return scenario.Scenario{
		ID:    fmt.Sprintf("%s/%s=%s/%s/%d", class, edit.Directive, edit.NewValue, lineRef, seq),
		Class: class,
		Description: fmt.Sprintf("set %s = %s, then %s",
			edit.Directive, edit.NewValue, v.Description),
		Apply: func(s *confnode.Set) error {
			// The edit rewrites only the line's own words, so a copy of
			// the path to the line is all it needs.
			line, err := lineRef.ResolveOwned(s)
			if err != nil {
				return err
			}
			// Replace the value tokens with the newly typed value...
			for _, w := range line.ChildrenByKind(confnode.KindWord) {
				if w.AttrDefault(view.TokenAttr, "") == view.TokenValue {
					w.Remove()
				}
			}
			word := confnode.NewValued(confnode.KindWord, "", edit.NewValue)
			word.SetAttr(view.TokenAttr, view.TokenValue)
			line.Append(word)
			// ...and slip the typo into it.
			v.Apply(word)
			return nil
		},
	}
}

// findDirectiveLine locates the word-view line whose name token matches
// the directive (case-insensitively, so tasks port across systems).
func findDirectiveLine(wordSet *confnode.Set, directive string) (template.Ref, error) {
	var found template.Ref
	var ok bool
	wordSet.Walk(func(file string, root *confnode.Node) {
		for _, line := range root.ChildrenByKind(confnode.KindLine) {
			for _, w := range line.ChildrenByKind(confnode.KindWord) {
				if w.AttrDefault(view.TokenAttr, "") == view.TokenName &&
					strings.EqualFold(w.Value, directive) && !ok {
					found = template.RefOf(file, line)
					ok = true
				}
			}
		}
	})
	if !ok {
		return template.Ref{}, fmt.Errorf("editsim: directive %q not found in configuration", directive)
	}
	return found, nil
}
