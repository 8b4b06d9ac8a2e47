package scenario

// Step is a walk's decision at one stream position.
type Step uint8

const (
	// Build renders the scenario at the position and yields it.
	Build Step = iota
	// Skip passes the position over: the walk advances its position
	// counter and renders nothing.
	Skip
	// Stop ends the walk at the position, before rendering it.
	Stop
)

// Walk enumerates a stream by position — the form of a faultload that
// lets a consumer pay only for the scenarios it keeps. Called with start,
// the position its first scenario holds in the whole stream, a walk asks
// decide about each of its positions in turn and renders (and yields)
// only those decide says to Build; a Skipped position costs it a counter
// increment. It returns the position after the last one it passed, and
// whether the consumer wants more: false once decide said Stop or yield
// returned false.
//
// A walk cannot fail: a generator whose enumeration may fail offers no
// walk. A walk is pure: every call enumerates the identical stream, so it
// may be called any number of times.
type Walk func(start int, decide func(pos int) Step, yield func(Scenario) bool) (next int, more bool)

// Source is the walk with every position built: the stream itself.
func (w Walk) Source() Source {
	return func(yield func(Scenario, error) bool) {
		w(0, func(int) Step { return Build }, func(sc Scenario) bool { return yield(sc, nil) })
	}
}

// Shard is Source.Shard on a walk: shard k of n builds only the
// positions congruent to k modulo n and skips the rest, so a shard costs
// O(scenarios built) renders plus O(positions) counter steps instead of
// rendering the whole stream and discarding (n−1)/n of it.
func (w Walk) Shard(k, n int) Source {
	if n <= 1 {
		if k == 0 {
			return w.Source()
		}
		return func(func(Scenario, error) bool) {}
	}
	if k < 0 || k >= n {
		return func(func(Scenario, error) bool) {}
	}
	return func(yield func(Scenario, error) bool) {
		w(0, func(pos int) Step {
			if pos%n == k {
				return Build
			}
			return Skip
		}, func(sc Scenario) bool { return yield(sc, nil) })
	}
}

// Limit is Source.Limit on a walk: it stops at position start+n, so no
// work past the cap happens. Reaching the cap ends this walk, not its
// consumer: a limited walk inside a concatenation hands over to the next
// part.
func (w Walk) Limit(n int) Walk {
	return func(start int, decide func(int) Step, yield func(Scenario) bool) (int, bool) {
		end := start + max(n, 0)
		capped := false
		next, more := w(start, func(pos int) Step {
			if pos >= end {
				capped = true
				return Stop
			}
			return decide(pos)
		}, yield)
		return next, more || capped
	}
}

// Map is Source.Map on a walk: f rewrites every built scenario.
func (w Walk) Map(f func(Scenario) Scenario) Walk {
	return func(start int, decide func(int) Step, yield func(Scenario) bool) (int, bool) {
		return w(start, decide, func(sc Scenario) bool { return yield(f(sc)) })
	}
}

// ConcatWalks is Concat on walks: each part continues at the position the
// previous one reached.
func ConcatWalks(walks ...Walk) Walk {
	return func(pos int, decide func(int) Step, yield func(Scenario) bool) (int, bool) {
		for _, w := range walks {
			var more bool
			if pos, more = w(pos, decide, yield); !more {
				return pos, false
			}
		}
		return pos, true
	}
}
