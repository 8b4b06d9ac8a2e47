// Package structural implements ConfErr's structural error generator
// (paper §2.2, §4.2) over the struct view: omission of directives and
// sections, duplication (copy-paste repetition), and misplacement of
// directives into the wrong section. It also implements the §5.3
// variations generator — structure-preserving rewrites (reordering,
// whitespace, case, truncation) that an ideal system should accept, used
// to produce Table 2.
package structural

import (
	"fmt"
	"math/rand"
	"strings"

	"conferr/internal/confnode"
	"conferr/internal/formats"
	"conferr/internal/scenario"
	"conferr/internal/template"
	"conferr/internal/view"
)

// Plugin generates structural faults: omissions, duplications and moves.
type Plugin struct {
	// Sections enables section-level omission/duplication in addition to
	// directive-level faults.
	Sections bool
	// PerClass bounds the number of scenarios per fault class; 0 keeps
	// all. Sampling uses an RNG derived from Seed.
	PerClass int
	// Seed derives the sampling RNG, per stream call: the faultload is a
	// pure function of (Seed, configuration), so repeated and sharded
	// enumerations agree exactly.
	Seed int64
}

// Name identifies the plugin.
func (p *Plugin) Name() string { return "structural" }

// View returns the configuration view the plugin's scenarios apply to.
func (p *Plugin) View() view.View { return view.StructView{} }

// Generate enumerates the structural fault scenarios. It materializes
// GenerateStream, so the slice and streaming paths enumerate the identical
// faultload.
func (p *Plugin) Generate(set *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(p.GenerateStream(set))
}

// GenerateStream yields the structural faultload lazily, class by class.
// Without PerClass sampling every template's (target × destination)
// fan-out — quadratic for misplacements — streams one scenario at a time;
// with sampling, each class pool materializes internally and the draws
// stay identical to the historical eager path.
func (p *Plugin) GenerateStream(set *confnode.Set) scenario.Source {
	// Deriving the RNG inside the returned closure makes every
	// enumeration — not just every GenerateStream call — pure: a Source
	// value driven twice samples identically, like every other plugin.
	return func(yield func(scenario.Scenario, error) bool) {
		p.stream(set)(yield)
	}
}

// stream builds one enumeration's pipeline: a fresh sampling RNG shared
// by the class samplers in class order (the historical draw order).
func (p *Plugin) stream(set *confnode.Set) scenario.Source {
	classes := p.templates()
	var rng *rand.Rand
	if p.PerClass > 0 {
		rng = rand.New(rand.NewSource(p.Seed))
	}
	sources := make([]scenario.Source, len(classes))
	for i, tpl := range classes {
		tpl := tpl
		wrap := func(err error) error {
			return fmt.Errorf("structural: %s: %w", tpl.Name(), err)
		}
		if p.PerClass > 0 {
			// Sampling needs the class pool; the pool materializes when
			// the class is reached, and the RNG draws stay in class order.
			sources[i] = scenario.Source(func(yield func(scenario.Scenario, error) bool) {
				scens, err := scenario.Collect(tpl.GenerateStream(set))
				if err != nil {
					yield(scenario.Scenario{}, wrap(err))
					return
				}
				for _, sc := range scenario.RandomSubset(rng, scens, p.PerClass) {
					if !yield(sc, nil) {
						return
					}
				}
			})
			continue
		}
		sources[i] = tpl.GenerateStream(set).MapErr(wrap)
	}
	return scenario.Concat(sources...)
}

// templates lists the fault-class templates the plugin composes.
func (p *Plugin) templates() []template.Template {
	classes := []template.Template{
		&template.DeleteTemplate{
			Targets: template.OfKind(confnode.KindDirective),
			Class:   "structural/omit-directive",
		},
		&template.DuplicateTemplate{
			Targets: template.OfKind(confnode.KindDirective),
			Class:   "structural/duplicate-directive",
		},
		&template.MoveTemplate{
			Targets:      template.OfKind(confnode.KindDirective),
			Destinations: template.OfKind(confnode.KindSection),
			Class:        "structural/misplace-directive",
		},
	}
	if p.Sections {
		classes = append(classes,
			&template.DeleteTemplate{
				Targets: template.OfKind(confnode.KindSection),
				Class:   "structural/omit-section",
			},
			&template.DuplicateTemplate{
				Targets: template.OfKind(confnode.KindSection),
				Class:   "structural/duplicate-section",
			},
		)
	}
	return classes
}

// Variation classes for the §5.3 experiment (Table 2 rows).
const (
	// VariationSectionOrder reorders sibling sections.
	VariationSectionOrder = "variation/section-order"
	// VariationDirectiveOrder reorders directives within their section.
	VariationDirectiveOrder = "variation/directive-order"
	// VariationSpaces rewrites the whitespace around separators.
	VariationSpaces = "variation/spaces"
	// VariationMixedCase rewrites directive names with random case.
	VariationMixedCase = "variation/mixed-case"
	// VariationTruncatedNames truncates directive names by one character.
	VariationTruncatedNames = "variation/truncated-names"
)

// AllVariationClasses lists the Table 2 variation classes in row order.
func AllVariationClasses() []string {
	return []string{
		VariationSectionOrder,
		VariationDirectiveOrder,
		VariationSpaces,
		VariationMixedCase,
		VariationTruncatedNames,
	}
}

// Variations generates structure-preserving configuration rewrites: for
// each requested class, PerClass scenarios each rewriting the whole
// configuration (the paper tested "each system with 10 different
// configuration files" per class). An ideal system accepts every one.
type Variations struct {
	// Classes selects the variation classes; nil means all.
	Classes []string
	// PerClass is the number of variant configurations per class
	// (default 10, as in the paper).
	PerClass int
	// Seed derives the per-scenario rewrite seeds, afresh on every stream
	// call, keeping the faultload a pure function of (Seed, classes).
	Seed int64
}

// Name identifies the generator.
func (v *Variations) Name() string { return "variations" }

// View returns the configuration view the scenarios apply to.
func (v *Variations) View() view.View { return view.StructView{} }

// Generate enumerates variation scenarios. Each scenario captures a seed
// so it is replayable.
func (v *Variations) Generate(set *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(v.GenerateStream(set))
}

// GenerateStream yields variation scenarios lazily; the per-scenario
// rewrite seeds are drawn from a seed-derived RNG in the same order as
// the eager path, so every enumeration yields the identical faultload.
func (v *Variations) GenerateStream(set *confnode.Set) scenario.Source {
	return func(yield func(scenario.Scenario, error) bool) {
		rng := rand.New(rand.NewSource(v.Seed))
		classes := v.Classes
		if classes == nil {
			classes = AllVariationClasses()
		}
		per := v.PerClass
		if per == 0 {
			per = 10
		}
		for _, class := range classes {
			rewrite, ok := rewriters[class]
			if !ok {
				yield(scenario.Scenario{}, fmt.Errorf("structural: unknown variation class %q", class))
				return
			}
			for i := 0; i < per; i++ {
				seed := rng.Int63()
				sc := scenario.Scenario{
					ID:          fmt.Sprintf("%s/%d", class, i),
					Class:       class,
					Description: fmt.Sprintf("%s rewrite #%d", class, i),
					Apply: func(s *confnode.Set) error {
						rewrite(rand.New(rand.NewSource(seed)), s)
						return nil
					},
				}
				if !yield(sc, nil) {
					return
				}
			}
		}
	}
}

// rewriters maps each variation class to its whole-configuration rewrite.
var rewriters = map[string]func(*rand.Rand, *confnode.Set){
	VariationSectionOrder:   rewriteSectionOrder,
	VariationDirectiveOrder: rewriteDirectiveOrder,
	VariationSpaces:         rewriteSpaces,
	VariationMixedCase:      rewriteMixedCase,
	VariationTruncatedNames: rewriteTruncatedNames,
}

// shuffleAmong permutes the given children of parent among their own
// positions, leaving other children (comments, blanks) in place.
func shuffleAmong(rng *rand.Rand, parent *confnode.Node, kind confnode.Kind) {
	nodes := parent.ChildrenByKind(kind)
	if len(nodes) < 2 {
		return
	}
	positions := make([]int, len(nodes))
	for i, n := range nodes {
		positions[i] = n.Index()
	}
	perm := rng.Perm(len(nodes))
	// Detach all, then reinsert in permuted order at the recorded
	// positions (ascending to keep indices valid).
	for _, n := range nodes {
		n.Remove()
	}
	for i, pos := range positions {
		parent.InsertAt(pos, nodes[perm[i]])
	}
}

func rewriteSectionOrder(rng *rand.Rand, set *confnode.Set) {
	set.Walk(func(_ string, root *confnode.Node) {
		shuffleAmong(rng, root, confnode.KindSection)
	})
}

func rewriteDirectiveOrder(rng *rand.Rand, set *confnode.Set) {
	set.Walk(func(_ string, root *confnode.Node) {
		root.Walk(func(n *confnode.Node) bool {
			if n.Kind == confnode.KindDocument || n.Kind == confnode.KindSection {
				shuffleAmong(rng, n, confnode.KindDirective)
			}
			return true
		})
	})
}

func rewriteSpaces(rng *rand.Rand, set *confnode.Set) {
	pads := []string{"", " ", "  ", "\t", "   "}
	set.Walk(func(_ string, root *confnode.Node) {
		root.Walk(func(n *confnode.Node) bool {
			if n.Kind != confnode.KindDirective {
				return true
			}
			sep, ok := n.Attr(formats.AttrSep)
			if !ok || n.Value == "" {
				return true
			}
			pad := func() string { return pads[rng.Intn(len(pads))] }
			if strings.Contains(sep, "=") {
				n.SetAttr(formats.AttrSep, pad()+"="+pad())
			} else {
				n.SetAttr(formats.AttrSep, " "+pad())
			}
			return true
		})
	})
}

func rewriteMixedCase(rng *rand.Rand, set *confnode.Set) {
	set.Walk(func(_ string, root *confnode.Node) {
		root.Walk(func(n *confnode.Node) bool {
			if n.Kind != confnode.KindDirective || n.Name == "" {
				return true
			}
			runes := []rune(n.Name)
			changed := false
			for i, r := range runes {
				if rng.Intn(2) == 0 {
					continue
				}
				switch {
				case r >= 'a' && r <= 'z':
					runes[i] = r - 32
					changed = true
				case r >= 'A' && r <= 'Z':
					runes[i] = r + 32
					changed = true
				}
			}
			if !changed && len(runes) > 0 {
				// Guarantee at least one case flip per name so the class
				// is actually exercised.
				for i, r := range runes {
					if r >= 'a' && r <= 'z' {
						runes[i] = r - 32
						break
					}
					if r >= 'A' && r <= 'Z' {
						runes[i] = r + 32
						break
					}
				}
			}
			n.Name = string(runes)
			return true
		})
	})
}

func rewriteTruncatedNames(rng *rand.Rand, set *confnode.Set) {
	set.Walk(func(_ string, root *confnode.Node) {
		root.Walk(func(n *confnode.Node) bool {
			if n.Kind != confnode.KindDirective {
				return true
			}
			// Truncate long names by one trailing character — usually
			// still an unambiguous prefix.
			if len(n.Name) > 8 && rng.Intn(2) == 0 {
				n.Name = n.Name[:len(n.Name)-1]
			}
			return true
		})
	})
}

// Borrow generates the paper's §2.2 rule-based mistake: "the 'borrowing'
// of a configuration directive or section from another program configured
// by the same operator". Each scenario inserts one directive taken from a
// donor system's configuration into the target configuration — in the
// donor's syntax habits, exactly as an operator reusing a mental model
// would write it.
type Borrow struct {
	// Donor is the other program's parsed configuration to borrow from.
	Donor *confnode.Set
	// PerClass bounds the number of scenarios (0 = all combinations).
	PerClass int
	// Seed derives the sampling RNG per stream call, keeping the
	// faultload a pure function of (Seed, donor, configuration).
	Seed int64
}

// Name identifies the generator.
func (b *Borrow) Name() string { return "borrow" }

// View returns the configuration view the scenarios apply to.
func (b *Borrow) View() view.View { return view.StructView{} }

// Generate enumerates one scenario per (donor directive, target insertion
// point) pair; insertion points are the document roots and sections of
// the target configuration.
func (b *Borrow) Generate(set *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(b.GenerateStream(set))
}

// GenerateStream yields the borrow faultload lazily: the donor directives
// and insertion points are collected up front (bounded by the two
// configurations), while their cross product streams pair by pair. With
// PerClass sampling the pool materializes internally, keeping the draws
// identical to the eager path.
func (b *Borrow) GenerateStream(set *confnode.Set) scenario.Source {
	if b.Donor == nil {
		return scenario.Fail(fmt.Errorf("structural: Borrow requires a Donor configuration"))
	}
	if b.PerClass > 0 {
		return func(yield func(scenario.Scenario, error) bool) {
			all, err := scenario.Collect(b.pairStream(set))
			if err != nil {
				yield(scenario.Scenario{}, err)
				return
			}
			rng := rand.New(rand.NewSource(b.Seed))
			for _, sc := range scenario.RandomSubset(rng, all, b.PerClass) {
				if !yield(sc, nil) {
					return
				}
			}
		}
	}
	return b.pairStream(set)
}

// pairStream enumerates every (foreign directive, insertion point) pair.
func (b *Borrow) pairStream(set *confnode.Set) scenario.Source {
	// Collect the foreign directives (clones detached from the donor).
	var foreign []*confnode.Node
	b.Donor.Walk(func(_ string, root *confnode.Node) {
		root.Walk(func(n *confnode.Node) bool {
			if n.Kind == confnode.KindDirective {
				foreign = append(foreign, n.Clone())
			}
			return true
		})
	})
	// Collect insertion points in the target.
	type dest struct {
		ref  template.Ref
		desc string
	}
	var dests []dest
	set.Walk(func(file string, root *confnode.Node) {
		dests = append(dests, dest{ref: template.RefOf(file, root), desc: "top of " + file})
		root.Walk(func(n *confnode.Node) bool {
			if n.Kind == confnode.KindSection {
				dests = append(dests, dest{
					ref:  template.RefOf(file, n),
					desc: "section " + n.Name,
				})
			}
			return true
		})
	})

	const class = "structural/borrow-directive"
	return func(yield func(scenario.Scenario, error) bool) {
		seq := 0
		for _, f := range foreign {
			for _, d := range dests {
				f, d := f, d
				sc := scenario.Scenario{
					ID:    fmt.Sprintf("%s/%s/%d", class, d.ref, seq),
					Class: class,
					Description: fmt.Sprintf("borrow foreign directive %s=%s into %s",
						f.Name, f.Value, d.desc),
					Apply: func(s *confnode.Set) error {
						target, err := d.ref.Resolve(s)
						if err != nil {
							return err
						}
						target.Append(f.Clone())
						return nil
					},
				}
				if !yield(sc, nil) {
					return
				}
				seq++
			}
		}
	}
}
