// Package scenario defines fault scenarios: named, replayable mutations of
// configuration sets. Error-generator plugins synthesize scenarios (paper
// §3.1); the injection engine applies each one to a fresh clone of the
// initial configuration and observes the system under test.
package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"conferr/internal/confnode"
)

// ErrNotApplicable is returned by a scenario's Apply when the mutation it
// describes cannot be carried out on the given configuration (for example,
// the target node no longer exists). Such scenarios are skipped rather than
// counted as injections.
var ErrNotApplicable = errors.New("scenario not applicable to this configuration")

// Scenario is a single fault to inject: a mutation over an entire
// configuration set, which allows cross-file errors.
type Scenario struct {
	// ID uniquely identifies the scenario within a campaign, e.g.
	// "typo/substitution/my.cnf/3".
	ID string
	// Class is the fault class the scenario belongs to, e.g.
	// "typo/omission" or "structural/duplicate". Profiles aggregate by
	// class.
	Class string
	// Description says what the mutation does, in human terms, for the
	// resilience profile.
	Description string
	// Apply performs the mutation in place. The engine always passes a
	// clone of the initial configuration, so Apply may mutate freely.
	Apply func(set *confnode.Set) error
}

// Validate reports whether the scenario is well-formed. An empty Class
// is rejected: profiles aggregate by class, so a classless scenario would
// silently land in a "" bucket of every ByClass / DetectionByClass table
// instead of failing where the plugin is wrong.
func (s Scenario) Validate() error {
	if s.ID == "" {
		return errors.New("scenario: empty ID")
	}
	if s.Class == "" {
		return fmt.Errorf("scenario %s: empty Class", s.ID)
	}
	if s.Apply == nil {
		return fmt.Errorf("scenario %s: nil Apply", s.ID)
	}
	return nil
}

// RandomSubset returns n scenarios drawn uniformly without replacement,
// using the provided source of randomness. When n >= len(scenarios) a copy
// of the full set is returned. It corresponds to the paper's random-subset
// template used to limit the number of faults a model can return.
//
// The draw is a partial Fisher–Yates with the displaced positions kept in
// a map, so selecting a few scenarios from a huge faultload costs O(n)
// time and memory instead of copying and shuffling the full slice.
func RandomSubset(rng *rand.Rand, scenarios []Scenario, n int) []Scenario {
	if n < 0 {
		n = 0
	}
	if n >= len(scenarios) {
		cp := make([]Scenario, len(scenarios))
		copy(cp, scenarios)
		return cp
	}
	displaced := make(map[int]int, n)
	at := func(i int) int {
		if v, ok := displaced[i]; ok {
			return v
		}
		return i
	}
	out := make([]Scenario, n)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(scenarios)-i)
		vi, vj := at(i), at(j)
		displaced[i], displaced[j] = vj, vi
		out[i] = scenarios[vj]
	}
	return out
}

// ByClass groups scenarios by their Class field, preserving order within
// each class.
func ByClass(scenarios []Scenario) map[string][]Scenario {
	out := make(map[string][]Scenario)
	for _, s := range scenarios {
		out[s.Class] = append(out[s.Class], s)
	}
	return out
}
