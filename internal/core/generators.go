package core

import (
	"fmt"

	"conferr/internal/confnode"
	"conferr/internal/scenario"
	"conferr/internal/view"
)

// This file provides generator combinators: wrappers that reshape another
// generator's faultload — capping, sampling or replicating it —
// while implementing both the slice and the streaming contract. Each
// wrapper's Generate is defined as Collect over its own stream, so the two
// paths cannot drift apart.

// streamFunc builds a Generator+StreamingGenerator pair from a stream
// constructor; Generate materializes the identical stream.
type streamFunc struct {
	name string
	view view.View
	src  func(viewSet *confnode.Set) scenario.Source
	// walk, when set, returns the same stream as src as a walk, or nil
	// when the wrapped generator cannot walk (see GenerateWalk).
	walk func(viewSet *confnode.Set) scenario.Walk
}

var _ StreamingGenerator = streamFunc{}

// Name implements Generator.
func (g streamFunc) Name() string { return g.name }

// View implements Generator.
func (g streamFunc) View() view.View { return g.view }

// Generate implements Generator.
func (g streamFunc) Generate(viewSet *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(g.src(viewSet))
}

// GenerateStream implements StreamingGenerator.
func (g streamFunc) GenerateStream(viewSet *confnode.Set) scenario.Source {
	return g.src(viewSet)
}

// GenerateWalk implements walker: nil unless the wrapped pipeline walks.
func (g streamFunc) GenerateWalk(viewSet *confnode.Set) scenario.Walk {
	if g.walk == nil {
		return nil
	}
	return g.walk(viewSet)
}

// walker is a generator whose faultload can also be walked by position
// (scenario.Walk), so a shard renders only the scenarios it runs.
// GenerateWalk enumerates exactly GenerateStream's positions, or returns
// nil when the generator, as configured, cannot walk (a sampling typo
// plugin, say).
type walker interface {
	GenerateWalk(viewSet *confnode.Set) scenario.Walk
}

// walkOf returns gen's faultload as a walk, or nil when gen cannot walk.
func walkOf(gen Generator, viewSet *confnode.Set) scenario.Walk {
	if w, ok := gen.(walker); ok {
		return w.GenerateWalk(viewSet)
	}
	return nil
}

// shardOf returns shard k of n of gen's faultload, enumerated afresh —
// sound because every generator is pure (see Generator). A generator
// that walks builds only the positions the shard owns and steps over the
// rest; any other is strided, every scenario rendered and n−1 of n
// discarded.
func shardOf(gen Generator, viewSet *confnode.Set, k, n int) scenario.Source {
	if w := walkOf(gen, viewSet); w != nil {
		return w.Shard(k, n)
	}
	return StreamOf(gen, viewSet).Shard(k, n)
}

// LimitGenerator caps gen's faultload at n scenarios. On the streaming
// path the cap stops the pull: generation work past n never happens.
func LimitGenerator(gen Generator, n int) Generator {
	return streamFunc{
		name: gen.Name(),
		view: gen.View(),
		src: func(viewSet *confnode.Set) scenario.Source {
			return StreamOf(gen, viewSet).Limit(n)
		},
		walk: func(viewSet *confnode.Set) scenario.Walk {
			if w := walkOf(gen, viewSet); w != nil {
				return w.Limit(n)
			}
			return nil
		},
	}
}

// SampleGenerator draws n scenarios uniformly from gen's faultload via
// seeded reservoir sampling: the whole faultload streams past, but only n
// scenarios are ever resident.
func SampleGenerator(gen Generator, seed int64, n int) Generator {
	return streamFunc{
		name: gen.Name(),
		view: gen.View(),
		src: func(viewSet *confnode.Set) scenario.Source {
			return StreamOf(gen, viewSet).SampleN(seed, n)
		},
	}
}

// RepeatGenerator replays gen's faultload rounds times, prefixing every
// scenario ID with its round ("r003/typo/...") so IDs stay campaign-unique
// — the stress harness for driving the streaming runner far past what one
// enumeration of a configuration yields. Each round pulls a fresh stream
// from gen, which, being pure, repeats the identical enumeration. A
// negative rounds counts as zero: an empty faultload, as LimitGenerator
// gives for n ≤ 0.
func RepeatGenerator(gen Generator, rounds int) Generator {
	rounds = max(rounds, 0)
	return streamFunc{
		name: gen.Name(),
		view: gen.View(),
		src: func(viewSet *confnode.Set) scenario.Source {
			sources := make([]scenario.Source, rounds)
			for r := range sources {
				sources[r] = StreamOf(gen, viewSet).Map(roundPrefix(r))
			}
			return scenario.Concat(sources...)
		},
		walk: func(viewSet *confnode.Set) scenario.Walk {
			w := walkOf(gen, viewSet)
			if w == nil {
				return nil
			}
			walks := make([]scenario.Walk, rounds)
			for r := range walks {
				walks[r] = w.Map(roundPrefix(r))
			}
			return scenario.ConcatWalks(walks...)
		},
	}
}

// roundPrefix prefixes a scenario's ID with round r: "r003/typo/...".
func roundPrefix(r int) func(scenario.Scenario) scenario.Scenario {
	prefix := fmt.Sprintf("r%03d/", r)
	return func(sc scenario.Scenario) scenario.Scenario {
		sc.ID = prefix + sc.ID
		return sc
	}
}
