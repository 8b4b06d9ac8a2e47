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
	// shardable marks the wrapped pipeline as pure: every src call
	// re-derives the identical stream, which is what makes the strided
	// GenerateShard sound. Wrappers are shardable exactly when every
	// generator they compose is.
	shardable bool
}

var _ ShardedGenerator = streamFunc{}

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

// GenerateShard implements ShardedGenerator: a fresh pull of the pure
// pipeline, strided down to shard k of n. Only sound when Shardable()
// reports true — the runner checks through CanShard.
func (g streamFunc) GenerateShard(viewSet *confnode.Set, k, n int) scenario.Source {
	return g.src(viewSet).Shard(k, n)
}

// Shardable reports whether every composed generator is shard-stable.
func (g streamFunc) Shardable() bool { return g.shardable }

// LimitGenerator caps gen's faultload at n scenarios. On the streaming
// path the cap stops the pull: generation work past n never happens.
func LimitGenerator(gen Generator, n int) Generator {
	return streamFunc{
		name:      gen.Name(),
		view:      gen.View(),
		shardable: CanShard(gen),
		src: func(viewSet *confnode.Set) scenario.Source {
			return StreamOf(gen, viewSet).Limit(n)
		},
	}
}

// SampleGenerator draws n scenarios uniformly from gen's faultload via
// seeded reservoir sampling: the whole faultload streams past, but only n
// scenarios are ever resident.
func SampleGenerator(gen Generator, seed int64, n int) Generator {
	return streamFunc{
		name:      gen.Name(),
		view:      gen.View(),
		shardable: CanShard(gen),
		src: func(viewSet *confnode.Set) scenario.Source {
			return StreamOf(gen, viewSet).SampleN(seed, n)
		},
	}
}

// RepeatGenerator replays gen's faultload rounds times, prefixing every
// scenario ID with its round ("r003/typo/...") so IDs stay campaign-unique
// — the stress harness for driving the streaming runner far past what one
// enumeration of a configuration yields. Each round pulls a fresh stream
// from gen; the built-in generators are pure functions of their seed, so
// every round repeats the identical enumeration — the property that also
// makes a repeated faultload shard-stable across workers.
func RepeatGenerator(gen Generator, rounds int) Generator {
	return streamFunc{
		name:      gen.Name(),
		view:      gen.View(),
		shardable: CanShard(gen),
		src: func(viewSet *confnode.Set) scenario.Source {
			sources := make([]scenario.Source, rounds)
			for r := 0; r < rounds; r++ {
				prefix := fmt.Sprintf("r%03d/", r)
				sources[r] = StreamOf(gen, viewSet).Map(func(sc scenario.Scenario) scenario.Scenario {
					sc.ID = prefix + sc.ID
					return sc
				})
			}
			return scenario.Concat(sources...)
		},
	}
}
