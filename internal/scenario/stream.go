package scenario

import (
	"math/rand"
)

// Source is a pull-based stream of fault scenarios — the streaming
// counterpart of a []Scenario faultload. It has the shape of an
// iter.Seq2[Scenario, error]: calling the source with a yield function
// drives the stream, and the consumer stops it by returning false.
//
// Contract: scenarios are yielded in generator order with a nil error; a
// source that fails yields exactly one (zero Scenario, non-nil error) pair
// as its final element and stops. A generator's source may be called any
// number of times and enumerates the identical stream on every call:
// generators are pure functions of their seed and configuration, so any
// randomness is derived afresh inside each call. The stages below (Map,
// Limit, Shard, …) keep that property of their upstream.
//
// Because a Source is pulled one scenario at a time, a faultload streamed
// through it never exists as a slice: campaigns are bounded by the window
// of in-flight experiments, not by the faultload size.
type Source func(yield func(Scenario, error) bool)

// Fail returns a Source that yields only the given error.
func Fail(err error) Source {
	return func(yield func(Scenario, error) bool) {
		yield(Scenario{}, err)
	}
}

// Collect materializes a Source back into a slice, stopping at the first
// stream error. It is the bridge from the streaming to the slice-based
// API: for every generator in this repository,
// Collect(GenerateStream(set)) must equal Generate(set).
func Collect(src Source) ([]Scenario, error) {
	var out []Scenario
	var ferr error
	src(func(sc Scenario, err error) bool {
		if err != nil {
			ferr = err
			return false
		}
		out = append(out, sc)
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// Concat chains sources: each is drained in turn, preserving order — the
// paper's union template for composing error models, used to chain the
// rounds of a repeated faultload. A stream error in any part terminates
// the whole stream.
func Concat(sources ...Source) Source {
	return func(yield func(Scenario, error) bool) {
		for _, src := range sources {
			stop := false
			src(func(sc Scenario, err error) bool {
				if err != nil {
					stop = true
					yield(sc, err)
					return false
				}
				if !yield(sc, nil) {
					stop = true
					return false
				}
				return true
			})
			if stop {
				return
			}
		}
	}
}

// Map applies f to every scenario, preserving order and errors — the
// stage behind ID-rewriting wrappers like round prefixing.
func (s Source) Map(f func(Scenario) Scenario) Source {
	return func(yield func(Scenario, error) bool) {
		s(func(sc Scenario, err error) bool {
			if err != nil {
				return yield(sc, err)
			}
			return yield(f(sc), nil)
		})
	}
}

// MapErr rewrites the stream's terminating error, if any, leaving
// scenarios untouched — the stage behind per-part error wrapping in
// composed generators.
func (s Source) MapErr(f func(error) error) Source {
	return func(yield func(Scenario, error) bool) {
		s(func(sc Scenario, err error) bool {
			if err != nil {
				return yield(sc, f(err))
			}
			return yield(sc, nil)
		})
	}
}

// Limit passes through at most n scenarios and then stops pulling from the
// upstream source — upstream generation work past the cap never happens.
func (s Source) Limit(n int) Source {
	return func(yield func(Scenario, error) bool) {
		if n <= 0 {
			return
		}
		left := n
		s(func(sc Scenario, err error) bool {
			if err != nil {
				return yield(sc, err)
			}
			if !yield(sc, nil) {
				return false
			}
			left--
			return left > 0
		})
	}
}

// Shard keeps only the scenarios at stream positions congruent to k
// modulo n — the strided sub-stream worker k of n pulls when a campaign's
// generation is sharded. The union of Shard(0,n) … Shard(n-1,n),
// interleaved by stride, is exactly the unsharded stream for every n; a
// stream error reaches every shard (after the shard's own prefix), so
// sharded consumers observe failures at a consistent point. n <= 1 (or an
// out-of-range k) returns the stream unchanged for the only valid shard,
// empty otherwise.
func (s Source) Shard(k, n int) Source {
	if n <= 1 {
		if k == 0 {
			return s
		}
		return func(func(Scenario, error) bool) {}
	}
	if k < 0 || k >= n {
		return func(func(Scenario, error) bool) {}
	}
	return func(yield func(Scenario, error) bool) {
		idx := 0
		s(func(sc Scenario, err error) bool {
			if err != nil {
				return yield(sc, err)
			}
			keep := idx%n == k
			idx++
			if !keep {
				return true
			}
			return yield(sc, nil)
		})
	}
}

// SampleN draws n scenarios uniformly without replacement via seeded
// reservoir sampling (Algorithm R): the whole stream is consumed, but only
// n scenarios are ever held in memory — the streaming replacement for
// materializing a faultload just to RandomSubset it. The sample is
// deterministic for a fixed seed and stream; its order is the reservoir's
// slot order, not stream order (like RandomSubset's draw order).
func (s Source) SampleN(seed int64, n int) Source {
	return func(yield func(Scenario, error) bool) {
		if n <= 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		reservoir := make([]Scenario, 0, n)
		seen := 0
		var ferr error
		s(func(sc Scenario, err error) bool {
			if err != nil {
				ferr = err
				return false
			}
			seen++
			if len(reservoir) < n {
				reservoir = append(reservoir, sc)
				return true
			}
			if j := rng.Intn(seen); j < n {
				reservoir[j] = sc
			}
			return true
		})
		if ferr != nil {
			yield(Scenario{}, ferr)
			return
		}
		for _, sc := range reservoir {
			if !yield(sc, nil) {
				return
			}
		}
	}
}
