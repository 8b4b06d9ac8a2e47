// Package typo implements ConfErr's spelling-mistakes error generator
// (paper §2.1, §4.1). It operates on the word view of a configuration and
// provides one submodel per error category — omissions, insertions,
// substitutions, case alterations and transpositions — each a
// template.Mutator specializing the abstract modify template. Insertions
// and substitutions are keyboard-aware: they only produce characters a
// human could hit by pressing a key adjacent to the intended one with the
// same modifiers.
package typo

import (
	"fmt"
	"math/rand"
	"strings"
	"unicode"

	"conferr/internal/confnode"
	"conferr/internal/cpath"
	"conferr/internal/keyboard"
	"conferr/internal/scenario"
	"conferr/internal/template"
	"conferr/internal/view"
)

// Omission generates variants that drop one character from the token,
// modeling characters missed during hurried typing. The paper restricts
// the model to single-letter omissions, which are the common case.
type Omission struct{}

var _ template.Mutator = Omission{}

// Name implements template.Mutator.
func (Omission) Name() string { return "omission" }

// Enumerate implements template.Mutator: variant i omits rune i.
func (Omission) Enumerate(n *confnode.Node) (int, func(int) template.Variant) {
	runes := []rune(n.Value)
	return len(runes), func(i int) template.Variant {
		mutated := string(runes[:i]) + string(runes[i+1:])
		return template.Variant{
			Description: fmt.Sprintf("omit %q at %d -> %q", runes[i], i, mutated),
			Apply:       func(m *confnode.Node) { m.Value = mutated },
		}
	}
}

// slip is one keyboard slip while typing a token: the neighbour nb of the
// rune at position at.
type slip struct {
	at int
	nb rune
}

// slips lists a token's slips in order — each rune's keyboard neighbours,
// nearest first — the variants of insertion and substitution. A stray
// space splits the token; word identity is handled by the structural
// model, so the space is no slip here.
func slips(layout *keyboard.Layout, runes []rune) []slip {
	if layout == nil {
		layout = keyboard.Default()
	}
	count := 0
	for _, r := range runes {
		count += len(layout.Neighbors(r))
	}
	out := make([]slip, 0, count)
	for i, r := range runes {
		for _, nb := range layout.Neighbors(r) {
			if nb != ' ' {
				out = append(out, slip{at: i, nb: nb})
			}
		}
	}
	return out
}

// Insertion generates variants that introduce a spurious character next to
// an existing one. For each position, the inserted characters are the
// keyboard neighbors of the character at that position — the keys a finger
// could have brushed while typing it.
type Insertion struct {
	// Layout is the keyboard to draw neighbor characters from; nil means
	// keyboard.Default().
	Layout *keyboard.Layout
}

var _ template.Mutator = Insertion{}

// Name implements template.Mutator.
func (Insertion) Name() string { return "insertion" }

// Enumerate implements template.Mutator: variant i inserts slip i before
// the rune it slipped from.
func (t Insertion) Enumerate(n *confnode.Node) (int, func(int) template.Variant) {
	runes := []rune(n.Value)
	edits := slips(t.Layout, runes)
	return len(edits), func(i int) template.Variant {
		e := edits[i]
		mutated := string(runes[:e.at]) + string(e.nb) + string(runes[e.at:])
		return template.Variant{
			Description: fmt.Sprintf("insert %q before %d -> %q", e.nb, e.at, mutated),
			Apply:       func(m *confnode.Node) { m.Value = mutated },
		}
	}
}

// Substitution generates variants that replace one character with a
// keyboard neighbor, modeling an operator pressing a nearby key with the
// same modifier combination.
type Substitution struct {
	// Layout is the keyboard to draw neighbor characters from; nil means
	// keyboard.Default().
	Layout *keyboard.Layout
}

var _ template.Mutator = Substitution{}

// Name implements template.Mutator.
func (Substitution) Name() string { return "substitution" }

// Enumerate implements template.Mutator: variant i replaces the rune of
// slip i with its neighbour.
func (t Substitution) Enumerate(n *confnode.Node) (int, func(int) template.Variant) {
	runes := []rune(n.Value)
	edits := slips(t.Layout, runes)
	return len(edits), func(i int) template.Variant {
		e := edits[i]
		mutated := string(runes[:e.at]) + string(e.nb) + string(runes[e.at+1:])
		return template.Variant{
			Description: fmt.Sprintf("substitute %q for %q at %d -> %q", e.nb, runes[e.at], e.at, mutated),
			Apply:       func(m *confnode.Node) { m.Value = mutated },
		}
	}
}

// pairsWhere lists the positions i of the adjacent rune pairs
// (runes[i], runes[i+1]) that ok accepts, in order.
func pairsWhere(runes []rune, ok func(a, b rune) bool) []int {
	out := make([]int, 0, max(len(runes)-1, 0))
	for i := 0; i+1 < len(runes); i++ {
		if ok(runes[i], runes[i+1]) {
			out = append(out, i)
		}
	}
	return out
}

// CaseAlteration generates variants that swap the case of adjacent letters
// — the signature of a mis-coordinated Shift press ("Value" typed as
// "vAlue"). A variant is produced for each adjacent pair containing at
// least one cased letter, with both letters' cases toggled.
type CaseAlteration struct{}

var _ template.Mutator = CaseAlteration{}

// Name implements template.Mutator.
func (CaseAlteration) Name() string { return "case" }

// Enumerate implements template.Mutator: variant i toggles the i-th pair
// whose toggle changes a rune. A changed rune always changes the
// token's bytes, so no variant repeats the original.
func (CaseAlteration) Enumerate(n *confnode.Node) (int, func(int) template.Variant) {
	runes := []rune(n.Value)
	at := pairsWhere(runes, func(a, b rune) bool { return toggleCase(a) != a || toggleCase(b) != b })
	return len(at), func(k int) template.Variant {
		i := at[k]
		mutated := string(runes[:i]) + string(toggleCase(runes[i])) + string(toggleCase(runes[i+1])) + string(runes[i+2:])
		return template.Variant{
			Description: fmt.Sprintf("swap case at %d -> %q", i, mutated),
			Apply:       func(m *confnode.Node) { m.Value = mutated },
		}
	}
}

func toggleCase(r rune) rune {
	switch {
	case unicode.IsUpper(r):
		return unicode.ToLower(r)
	case unicode.IsLower(r):
		return unicode.ToUpper(r)
	default:
		return r
	}
}

// Transposition generates variants that swap two adjacent characters,
// modeling out-of-order key presses. Pairs of equal characters are skipped
// (the swap would be invisible). The paper notes letters in different
// words are rarely swapped, so the model never crosses token boundaries.
type Transposition struct{}

var _ template.Mutator = Transposition{}

// Name implements template.Mutator.
func (Transposition) Name() string { return "transposition" }

// Enumerate implements template.Mutator: variant i swaps the i-th pair
// of unequal runes.
func (Transposition) Enumerate(n *confnode.Node) (int, func(int) template.Variant) {
	runes := []rune(n.Value)
	at := pairsWhere(runes, func(a, b rune) bool { return a != b })
	return len(at), func(k int) template.Variant {
		i := at[k]
		mutated := string(runes[:i]) + string(runes[i+1]) + string(runes[i]) + string(runes[i+2:])
		return template.Variant{
			Description: fmt.Sprintf("transpose %d/%d -> %q", i, i+1, mutated),
			Apply:       func(m *confnode.Node) { m.Value = mutated },
		}
	}
}

// Plugin is the spelling-mistakes error generator. It composes the five
// submodels over the word view and optionally samples a bounded number of
// scenarios per submodel, mirroring the paper's plugin, which "generates
// errors by choosing random subsets of typos".
type Plugin struct {
	// Layout is the keyboard used by insertion and substitution; nil means
	// keyboard.Default().
	Layout *keyboard.Layout
	// Tokens restricts injection to word tokens of these classes
	// (view.TokenName, view.TokenValue). Empty means all tokens.
	Tokens []string
	// PerModel bounds the number of scenarios drawn from each submodel;
	// 0 means keep all. Sampling uses Rng.
	PerModel int
	// PerDirective bounds the number of scenarios per configuration
	// directive, drawn uniformly across all submodels — the paper's §5.5
	// faultload ("20 experiments for each directive"). 0 disables.
	// PerModel and PerDirective compose: PerModel caps first.
	PerDirective int
	// Seed derives the sampling RNG. Every stream call derives a fresh
	// RNG from it, so the faultload is a pure function of (Seed,
	// configuration): repeated and sharded enumerations agree exactly —
	// the property the sharded campaign runner relies on.
	Seed int64
	// Models overrides the submodels to use; nil means all five.
	Models []template.Mutator
}

// View returns the configuration view the plugin's scenarios apply to.
func (p *Plugin) View() view.View { return view.WordView{} }

// Name identifies the plugin.
func (p *Plugin) Name() string { return "typo" }

// targetExpr builds the cpath expression selecting the word tokens to
// mutate.
func (p *Plugin) targetExprs() []*cpath.Expr {
	if len(p.Tokens) == 0 {
		return []*cpath.Expr{cpath.MustCompile("//word")}
	}
	out := make([]*cpath.Expr, 0, len(p.Tokens))
	for _, tok := range p.Tokens {
		expr, err := cpath.Compile(fmt.Sprintf("//word[@%s='%s']", view.TokenAttr, tok))
		if err != nil {
			// Token classes are package constants; a failure here is a
			// programming error surfaced in tests.
			panic(err)
		}
		out = append(out, expr)
	}
	return out
}

// models returns the active submodels.
func (p *Plugin) models() []template.Mutator {
	if len(p.Models) > 0 {
		return p.Models
	}
	return []template.Mutator{
		Omission{},
		Insertion{Layout: p.Layout},
		Substitution{Layout: p.Layout},
		CaseAlteration{},
		Transposition{},
	}
}

// Generate enumerates typo scenarios for the given word-view configuration
// set. Scenarios are grouped per submodel class ("typo/omission", …); when
// PerModel is set, each class is independently down-sampled, which
// preserves variety across classes while bounding the faultload (paper
// §5.1: the plugins "declaratively specify broad fault classes and then
// select one element of each class"). It materializes GenerateStream, so
// the slice and streaming paths enumerate the identical faultload.
func (p *Plugin) Generate(wordSet *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(p.GenerateStream(wordSet))
}

// GenerateStream yields the faultload lazily: without sampling options it
// is GenerateWalk with every position built, so the submodels' (token ×
// variant) fan-out is pulled one scenario at a time and the full
// faultload never exists in memory. When PerModel or PerDirective is set,
// sampling needs the candidate pools, so the stream materializes
// internally — the draws stay identical to the historical eager path
// (RandomSubset over each class in model order), keeping published
// experiment faultloads stable.
func (p *Plugin) GenerateStream(wordSet *confnode.Set) scenario.Source {
	if w := p.GenerateWalk(wordSet); w != nil {
		return w.Source()
	}
	return p.sampledStream(wordSet)
}

// GenerateWalk returns the faultload as a walk over the positions of
// GenerateStream: the submodels in order, each over the target
// expressions in order. A sampling plugin (PerModel, PerDirective)
// cannot walk, since which scenarios survive depends on the whole pool;
// it returns nil.
func (p *Plugin) GenerateWalk(wordSet *confnode.Set) scenario.Walk {
	if p.PerModel > 0 || p.PerDirective > 0 {
		return nil
	}
	var walks []scenario.Walk
	for _, m := range p.models() {
		walks = append(walks, p.modelWalk(m, wordSet))
	}
	return scenario.ConcatWalks(walks...)
}

// modelWalk chains one submodel's walks across the target expressions.
func (p *Plugin) modelWalk(m template.Mutator, wordSet *confnode.Set) scenario.Walk {
	exprs := p.targetExprs()
	walks := make([]scenario.Walk, len(exprs))
	for i, expr := range exprs {
		tpl := &template.ModifyTemplate{
			Targets: expr,
			Mutator: m,
			Class:   "typo/" + m.Name(),
		}
		walks[i] = tpl.Walk(wordSet)
	}
	return scenario.ConcatWalks(walks...)
}

// sampledStream is the bounded-faultload path: each submodel's candidate
// pool is collected, down-sampled with an RNG derived from the plugin
// seed, and the survivors streamed out. The RNG is derived per call, in
// the historical draw order, so every enumeration yields the identical
// faultload.
func (p *Plugin) sampledStream(wordSet *confnode.Set) scenario.Source {
	return func(yield func(scenario.Scenario, error) bool) {
		rng := rand.New(rand.NewSource(p.Seed))
		var all []scenario.Scenario
		for _, m := range p.models() {
			classScens, _ := scenario.Collect(p.modelWalk(m, wordSet).Source()) // a walk cannot fail
			if p.PerModel > 0 {
				classScens = scenario.RandomSubset(rng, classScens, p.PerModel)
			}
			all = append(all, classScens...)
		}
		if p.PerDirective > 0 {
			all = samplePerDirective(rng, all, p.PerDirective)
		}
		for _, sc := range all {
			if !yield(sc, nil) {
				return
			}
		}
	}
}

// samplePerDirective groups scenarios by the directive (line) they target
// and draws n per group, preserving group order of first appearance.
func samplePerDirective(rng *rand.Rand, scens []scenario.Scenario, n int) []scenario.Scenario {
	groups := make(map[string][]scenario.Scenario)
	var order []string
	for _, s := range scens {
		key := DirectiveKey(s.ID)
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], s)
	}
	var out []scenario.Scenario
	for _, key := range order {
		out = append(out, scenario.RandomSubset(rng, groups[key], n)...)
	}
	return out
}

// DirectiveKey extracts, from a typo scenario ID, a key identifying the
// configuration directive (word-view line) the scenario targets: the
// node-ref portion of the ID with the word index stripped. Scenario IDs
// have the form "typo/<model>/<file>#<line>.<word>/<seq>".
func DirectiveKey(scenarioID string) string {
	hash := strings.IndexByte(scenarioID, '#')
	if hash < 0 {
		return ""
	}
	// The ref runs from the last '/' before '#' to the '/' after it.
	start := strings.LastIndexByte(scenarioID[:hash], '/') + 1
	end := strings.IndexByte(scenarioID[hash:], '/')
	if end < 0 {
		end = len(scenarioID)
	} else {
		end += hash
	}
	ref := scenarioID[start:end]
	// Strip the word index, keeping file#line.
	if dot := strings.LastIndexByte(ref, '.'); dot > strings.IndexByte(ref, '#') {
		ref = ref[:dot]
	}
	return ref
}
