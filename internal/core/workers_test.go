package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
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

// panicShardGen is benchfixture.Gen at two workers whose walk panics
// when it builds position 7, shard 1's fourth scenario. The shards meet
// there: shard 1 panics only once shard 0, about to build position 6
// (its own fourth), has deposited its third record, and shard 0 goes on
// only once shard 1 has panicked and the worker loop has had time to
// recover, so exactly sequences 0 to 5 run before the stop.
type panicShardGen struct {
	benchfixture.Gen
	ready, panicked chan struct{}
}

func newPanicShardGen() panicShardGen {
	return panicShardGen{ready: make(chan struct{}), panicked: make(chan struct{})}
}

func (g panicShardGen) GenerateWalk(s *confnode.Set) scenario.Walk {
	inner := g.Gen.GenerateWalk(s)
	return func(start int, decide func(int) scenario.Step, yield func(scenario.Scenario) bool) (int, bool) {
		built := -1
		return inner(start, func(pos int) scenario.Step {
			step := decide(pos)
			if step == scenario.Build {
				built = pos
			}
			return step
		}, func(sc scenario.Scenario) bool {
			switch built {
			case 7:
				<-g.ready
				close(g.panicked)
				panic("position 7 exploded")
			case 6:
				close(g.ready)
				<-g.panicked
				time.Sleep(50 * time.Millisecond)
			}
			return yield(sc)
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

// TestWorkerPanicStopsRun: a panic in the worker loop — from a walking
// generator under the ordered ring or under the bypass, from a strided
// stream, or from the sink — must end the run with a worker-panic
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
	t.Run("generator/stride", func(t *testing.T) {
		// No walk: both workers render the stream and panic at its 41st
		// scenario.
		gen := streamFunc{name: "stride-panic", view: benchfixture.Gen{}.View(),
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

// TestStrideAbortFlushesPrefixThroughFailure: without keep-going, an
// infrastructure error at sequence s of a generator that cannot walk,
// strided across the workers, yields the exact profile prefix 0..s at
// every worker count.
func TestStrideAbortFlushesPrefixThroughFailure(t *testing.T) {
	const s = 37
	gen := streamFunc{name: "stride-abort", view: view.StructView{},
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
