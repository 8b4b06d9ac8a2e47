package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"conferr/internal/benchfixture"
	"conferr/internal/confnode"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/view"
)

// returnsWithin runs f on its own goroutine and fails the test if f has
// not returned after d — the symptom of a worker waiting on a sequence
// nobody will ever deposit. f only runs; the caller checks afterwards.
func returnsWithin(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("run did not return within %v", d)
	}
}

// benchIDs is the benchfixture faultload's scenario IDs in order.
func benchIDs(t *testing.T) []string {
	t.Helper()
	ref, err := (&Campaign{Target: benchTarget(), Generator: benchfixture.Gen{}}).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(ref.Records))
	for i, r := range ref.Records {
		ids[i] = r.ScenarioID
	}
	return ids
}

func benchFactory() (*Target, error) { return benchTarget(), nil }

// panicShardGen is benchfixture.Gen at two workers whose shard 1 panics
// when pulled for its fourth scenario. The shards meet at that pull:
// shard 1 panics only once shard 0 has deposited its third record, and
// shard 0 goes on only once shard 1 has panicked and the worker loop has
// had time to recover, so exactly sequences 0 to 5 run before the stop.
type panicShardGen struct {
	benchfixture.Gen
	ready, panicked chan struct{}
}

func newPanicShardGen() panicShardGen {
	return panicShardGen{ready: make(chan struct{}), panicked: make(chan struct{})}
}

func (g panicShardGen) GenerateShard(s *confnode.Set, k, n int) scenario.Source {
	inner := g.Gen.GenerateShard(s, k, n)
	return func(yield func(scenario.Scenario, error) bool) {
		j := 0
		inner(func(sc scenario.Scenario, err error) bool {
			if j == 3 {
				if k == 1 {
					<-g.ready
					close(g.panicked)
					panic("shard 1 exploded")
				}
				close(g.ready)
				<-g.panicked
				time.Sleep(50 * time.Millisecond)
			}
			j++
			return yield(sc, err)
		})
	}
}

// idSink collects the IDs written through it; it is shardable, so the
// engine takes the bypass, and every shard appends to its own slice.
type idSink struct{ shards [][]string }

func (s *idSink) Write(profile.Record) error { panic("idSink: write outside a shard") }

func (s *idSink) ShardSink(k, n int) profile.Sink {
	if len(s.shards) < n {
		s.shards = make([][]string, n)
	}
	return idShard{&s.shards[k]}
}

func (s *idSink) ids() []string {
	var out []string
	for _, sh := range s.shards {
		out = append(out, sh...)
	}
	sort.Strings(out)
	return out
}

type idShard struct{ ids *[]string }

func (s idShard) Write(r profile.Record) error {
	*s.ids = append(*s.ids, r.ScenarioID)
	return nil
}

// panicSink panics on its at-th write.
type panicSink struct {
	at  int
	ids []string
}

func (s *panicSink) Write(r profile.Record) error {
	if len(s.ids)+1 == s.at {
		panic("sink exploded")
	}
	s.ids = append(s.ids, r.ScenarioID)
	return nil
}

// TestWorkerPanicStopsRun: a panic in the worker loop — from the
// generator under the ordered ring, under the bypass or on the shared
// pull stream, or from the sink — must end the run with a worker-panic
// error and a gap-free prefix of the faultload, instead of leaving the
// other workers waiting on a sequence the dead worker will never deposit.
func TestWorkerPanicStopsRun(t *testing.T) {
	want := benchIDs(t)
	if len(want) != 1024 {
		t.Fatalf("benchfixture faultload = %d scenarios, want 1024", len(want))
	}
	checkPrefix := func(t *testing.T, err error, n int, got []string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "worker panic") {
			t.Errorf("err = %v, want a worker panic", err)
		}
		if n != len(got) {
			t.Errorf("run reported %d records, sink holds %d", n, len(got))
		}
		for i, id := range got {
			if id != want[i] {
				t.Fatalf("record %d = %s, want %s: not a gap-free prefix", i, id, want[i])
			}
		}
	}
	opts := []RunOption{WithParallelism(2), WithTargetFactory(benchFactory)}
	profileIDs := func(p *profile.Profile) []string {
		ids := make([]string, len(p.Records))
		for i, r := range p.Records {
			ids[i] = r.ScenarioID
		}
		return ids
	}

	t.Run("generator/ring", func(t *testing.T) {
		c := &Campaign{Target: benchTarget(), Generator: newPanicShardGen()}
		prof := &profile.Profile{}
		var n int
		var err error
		returnsWithin(t, 10*time.Second, func() {
			n, err = c.RunStream(context.Background(), &profile.MemorySink{Profile: prof}, opts...)
		})
		checkPrefix(t, err, n, profileIDs(prof))
		if n != 6 {
			t.Errorf("flushed %d records, want the 6 run before the panic", n)
		}
	})
	t.Run("generator/bypass", func(t *testing.T) {
		c := &Campaign{Target: benchTarget(), Generator: newPanicShardGen()}
		sink := &idSink{}
		var n int
		var err error
		returnsWithin(t, 10*time.Second, func() {
			n, err = c.RunStream(context.Background(), sink, opts...)
		})
		checkPrefix(t, err, n, sink.ids())
		if n != 6 {
			t.Errorf("wrote %d records, want the 6 run before the panic", n)
		}
	})
	t.Run("generator/pull", func(t *testing.T) {
		gen := streamFunc{name: "pull-panic", view: benchfixture.Gen{}.View(),
			src: func(s *confnode.Set) scenario.Source {
				inner := benchfixture.Gen{}.GenerateStream(s)
				return func(yield func(scenario.Scenario, error) bool) {
					i := 0
					inner(func(sc scenario.Scenario, err error) bool {
						if i == 40 {
							panic("stream exploded")
						}
						i++
						return yield(sc, err)
					})
				}
			}}
		c := &Campaign{Target: benchTarget(), Generator: gen}
		prof := &profile.Profile{}
		var n int
		var err error
		returnsWithin(t, 10*time.Second, func() {
			n, err = c.RunStream(context.Background(), &profile.MemorySink{Profile: prof}, opts...)
		})
		checkPrefix(t, err, n, profileIDs(prof))
		if n > 40 {
			t.Errorf("flushed %d records, past the 40 pulled before the panic", n)
		}
	})
	t.Run("sink", func(t *testing.T) {
		c := &Campaign{Target: benchTarget(), Generator: benchfixture.Gen{}}
		sink := &panicSink{at: 100}
		var n int
		var err error
		returnsWithin(t, 10*time.Second, func() {
			n, err = c.RunStream(context.Background(), sink, opts...)
		})
		checkPrefix(t, err, n, sink.ids)
		if n != 99 {
			t.Errorf("flushed %d records, want the 99 written before the panic", n)
		}
	})
}

// rngGen is a stream-only generator that is not pure: every
// GenerateStream call draws from one long-lived RNG, so a second call
// enumerates a different faultload. calls counts the GenerateStream
// calls. Only an engine that generates the stream exactly once per run
// gives the same profile at every worker count.
type rngGen struct {
	rng   *rand.Rand
	calls *atomic.Int32
}

func newRNGGen() rngGen { return rngGen{rng: rand.New(rand.NewSource(7)), calls: new(atomic.Int32)} }

func (rngGen) Name() string    { return "rng" }
func (rngGen) View() view.View { return view.StructView{} }
func (g rngGen) Generate(s *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(g.GenerateStream(s))
}
func (g rngGen) GenerateStream(*confnode.Set) scenario.Source {
	g.calls.Add(1)
	return func(yield func(scenario.Scenario, error) bool) {
		for i := 0; i < 300; i++ {
			d := g.rng.Intn(1000)
			sc := scenario.Scenario{
				ID:    fmt.Sprintf("rng/%03d/%d", i, d),
				Class: fmt.Sprintf("c%d", d%3),
				Apply: func(*confnode.Set) error {
					if d%5 == 0 {
						return fmt.Errorf("draw %d: %w", d, scenario.ErrNotApplicable)
					}
					return nil
				},
			}
			if !yield(sc, nil) {
				return
			}
		}
	}
}

// rngSliceGen hides rngGen's stream: a Generate-only generator.
type rngSliceGen struct{ g rngGen }

func (s rngSliceGen) Name() string    { return s.g.Name() }
func (s rngSliceGen) View() view.View { return s.g.View() }
func (s rngSliceGen) Generate(set *confnode.Set) ([]scenario.Scenario, error) {
	return s.g.Generate(set)
}

// TestPullFeedGeneratesOnce: a generator without GenerateShard — stream
// or slice alike — is pulled from one shared stream, generated exactly
// once per run, so its profile is byte-identical at every worker count.
func TestPullFeedGeneratesOnce(t *testing.T) {
	kinds := map[string]func(rngGen) Generator{
		"stream": func(g rngGen) Generator { return g },
		"slice":  func(g rngGen) Generator { return rngSliceGen{g} },
	}
	for kind, mk := range kinds {
		run := func(workers int) []byte {
			gen := newRNGGen()
			var buf bytes.Buffer
			c := &Campaign{Target: target(&fakeSystem{}), Generator: mk(gen)}
			n, err := c.RunStream(context.Background(),
				dropDuration{profile.NewJSONLSink(&buf, "fake", "rng")},
				WithParallelism(workers), WithTargetFactory(parFactory))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kind, workers, err)
			}
			if n != 300 {
				t.Errorf("%s workers=%d: %d records, want 300", kind, workers, n)
			}
			if calls := gen.calls.Load(); calls != 1 {
				t.Errorf("%s workers=%d: generated %d times, want 1", kind, workers, calls)
			}
			return buf.Bytes()
		}
		want := run(1)
		for _, workers := range []int{2, 4, 8} {
			if got := run(workers); !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: JSONL diverges from workers=1\n%s",
					kind, workers, firstDiffLine(string(got), string(want)))
			}
		}
	}
}

// TestPullFeedAbortFlushesPrefixThroughFailure: without keep-going, an
// infrastructure error at sequence s on the shared pull stream yields
// the exact profile prefix 0..s at every worker count.
func TestPullFeedAbortFlushesPrefixThroughFailure(t *testing.T) {
	const s = 37
	gen := streamFunc{name: "pull-abort", view: view.StructView{},
		src: func(*confnode.Set) scenario.Source {
			return func(yield func(scenario.Scenario, error) bool) {
				for i := 0; i < 100; i++ {
					sc := scenario.Scenario{ID: fmt.Sprintf("p/%03d", i), Class: "c",
						Apply: func(*confnode.Set) error { return nil }}
					if i == s {
						sc.Apply = func(*confnode.Set) error { return errors.New("infra down") }
					}
					if !yield(sc, nil) {
						return
					}
				}
			}
		}}
	for _, workers := range []int{1, 2, 4, 8} {
		prof := &profile.Profile{}
		c := &Campaign{Target: target(&fakeSystem{}), Generator: gen}
		n, err := c.RunStream(context.Background(), &profile.MemorySink{Profile: prof},
			WithParallelism(workers), WithTargetFactory(parFactory))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("scenario p/%03d", s)) {
			t.Fatalf("workers=%d: err = %v, want the scenario p/%03d failure", workers, err, s)
		}
		if n != s+1 || len(prof.Records) != s+1 {
			t.Fatalf("workers=%d: flushed %d records, want %d", workers, n, s+1)
		}
		for i, r := range prof.Records {
			if want := fmt.Sprintf("p/%03d", i); r.ScenarioID != want {
				t.Fatalf("workers=%d: record %d = %s, want %s", workers, i, r.ScenarioID, want)
			}
		}
	}
}

// TestEmptyFaultload: an empty faultload runs to zero records and no
// error on every path, and both RunContext and RunStream refuse more than
// one worker without a target factory, even when there is nothing to run.
func TestEmptyFaultload(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, factory := range []bool{false, true} {
			opts := []RunOption{WithParallelism(workers)}
			if factory {
				opts = append(opts, WithTargetFactory(parFactory))
			}
			refused := workers > 1 && !factory
			check := func(entry string, n int, err error) {
				t.Helper()
				if refused {
					if !errors.Is(err, errParallelNeedsFactory) || n != 0 {
						t.Errorf("%s workers=%d without factory: %d records, err %v; want 0, the factory refusal",
							entry, workers, n, err)
					}
				} else if err != nil || n != 0 {
					t.Errorf("%s workers=%d factory=%v: %d records, err %v; want 0, nil",
						entry, workers, factory, n, err)
				}
			}
			c := &Campaign{Target: target(&fakeSystem{}), Generator: sliceGen{}}
			prof, err := c.RunContext(context.Background(), opts...)
			check("RunContext", len(prof.Records), err)
			n, err := c.RunStream(context.Background(), &profile.TallySink{}, opts...)
			check("RunStream", n, err)
		}
	}
}
