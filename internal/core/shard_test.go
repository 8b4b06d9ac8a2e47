package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"conferr/internal/benchfixture"
	"conferr/internal/confnode"
	"conferr/internal/plugins/typo"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/sutpool"
	"conferr/internal/template"
	"conferr/internal/view"
)

// collectIDs drains a source into its scenario IDs.
func collectIDs(t *testing.T, src scenario.Source) []string {
	t.Helper()
	scens, err := scenario.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(scens))
	for i, sc := range scens {
		out[i] = sc.ID
	}
	return out
}

// assertShardUnion checks that interleaving shard(k,n) for all k by
// stride reproduces want exactly, for shard counts that do and do not
// divide the faultload.
func assertShardUnion(t *testing.T, want []string, shard func(k, n int) scenario.Source) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("empty faultload")
	}
	for _, n := range []int{1, 2, 3, 5, 8} {
		total := 0
		for k := 0; k < n; k++ {
			got := collectIDs(t, shard(k, n))
			for j, id := range got {
				if i := j*n + k; i >= len(want) || want[i] != id {
					t.Fatalf("n=%d shard %d: diverges at local %d (%s)", n, k, j, id)
				}
			}
			total += len(got)
		}
		if total != len(want) {
			t.Fatalf("n=%d: shards hold %d scenarios, want %d", n, total, len(want))
		}
	}
}

// TestTemplateStreamsShardStable: the base templates' streams are
// deterministic, so their strided shards union back to the whole — the
// property every template-built plugin faultload inherits.
func TestTemplateStreamsShardStable(t *testing.T) {
	set := confnode.NewSet()
	root := confnode.New(confnode.KindDocument, "t.conf")
	sec := confnode.New(confnode.KindSection, "s")
	for i := 0; i < 7; i++ {
		sec.Append(confnode.NewValued(confnode.KindDirective, fmt.Sprintf("d%d", i), "v"))
	}
	root.Append(sec)
	root.Append(confnode.NewValued(confnode.KindDirective, "top", "x"))
	set.Put("t.conf", root)

	templates := map[string]template.Template{
		"delete":    &template.DeleteTemplate{Targets: template.OfKind(confnode.KindDirective)},
		"duplicate": &template.DuplicateTemplate{Targets: template.OfKind(confnode.KindDirective)},
		"move": &template.MoveTemplate{
			Targets:      template.OfKind(confnode.KindDirective),
			Destinations: template.OfKind(confnode.KindSection),
		},
		"modify": &template.ModifyTemplate{
			Targets: template.OfKind(confnode.KindDirective),
			Mutator: typo.Omission{},
		},
	}
	for name, tpl := range templates {
		t.Run(name, func(t *testing.T) {
			want := collectIDs(t, tpl.GenerateStream(set))
			assertShardUnion(t, want, func(k, n int) scenario.Source {
				return tpl.GenerateStream(set).Shard(k, n)
			})
		})
	}
}

// TestBenchfixtureShardParity pins the benchmark generator's walked
// shards against its own stream and slice forms.
func TestBenchfixtureShardParity(t *testing.T) {
	c := &Campaign{Target: benchTarget(), Generator: benchfixture.Gen{}}
	fl, err := c.generateBase()
	if err != nil {
		t.Fatal(err)
	}
	eager, err := benchfixture.Gen{}.Generate(fl.viewSet)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(eager))
	for i, sc := range eager {
		want[i] = sc.ID
	}
	streamed := collectIDs(t, benchfixture.Gen{}.GenerateStream(fl.viewSet))
	if strings.Join(streamed, ",") != strings.Join(want, ",") {
		t.Fatal("GenerateStream diverges from Generate")
	}
	if walkOf(benchfixture.Gen{}, fl.viewSet) == nil {
		t.Fatal("benchfixture.Gen should walk")
	}
	assertShardUnion(t, want, func(k, n int) scenario.Source {
		return shardOf(benchfixture.Gen{}, fl.viewSet, k, n)
	})
}

// TestCombinatorShardability: the combinators' shards, each derived
// afresh as a worker derives its own, union back to the whole.
func TestCombinatorShardability(t *testing.T) {
	plugin := &typo.Plugin{}
	c := &Campaign{Target: digestTarget(), Generator: plugin}
	fl, err := c.generateBase()
	if err != nil {
		t.Fatal(err)
	}
	for name, gen := range map[string]Generator{
		"limit":  LimitGenerator(plugin, 30),
		"sample": SampleGenerator(plugin, 7, 25),
		"repeat": RepeatGenerator(plugin, 3),
	} {
		t.Run(name, func(t *testing.T) {
			want := collectIDs(t, StreamOf(gen, fl.viewSet))
			assertShardUnion(t, want, func(k, n int) scenario.Source {
				return shardOf(gen, fl.viewSet, k, n)
			})
		})
	}
}

// TestRepeatNegativeRoundsIsEmpty: a negative round count is an empty
// faultload, as a non-positive limit is, on the stream, the walk and a
// whole run alike.
func TestRepeatNegativeRoundsIsEmpty(t *testing.T) {
	gen := RepeatGenerator(&typo.Plugin{}, -1)
	c := &Campaign{Target: digestTarget(), Generator: gen}
	fl, err := c.generateBase()
	if err != nil {
		t.Fatal(err)
	}
	if ids := collectIDs(t, StreamOf(gen, fl.viewSet)); len(ids) != 0 {
		t.Errorf("stream yields %d scenarios, want 0", len(ids))
	}
	if ids := collectIDs(t, shardOf(gen, fl.viewSet, 1, 2)); len(ids) != 0 {
		t.Errorf("shard 1 of 2 yields %d scenarios, want 0", len(ids))
	}
	for _, workers := range []int{1, 4} {
		n, err := c.RunStream(context.Background(), &profile.TallySink{},
			WithParallelism(workers),
			WithTargetFactory(func() (*Target, error) { return digestTarget(), nil }))
		if err != nil || n != 0 {
			t.Errorf("workers=%d: %d records, err %v; want 0, nil", workers, n, err)
		}
	}
}

// dropDuration forwards records to the wrapped sink with the (run-varying)
// wall-clock duration zeroed, so byte-level profile comparisons test
// determinism of everything that is supposed to be deterministic.
type dropDuration struct{ sink profile.Sink }

func (d dropDuration) Write(r profile.Record) error {
	r.Duration = 0
	return d.sink.Write(r)
}

// TestShardedStreamingProfilesByteIdentical is the PR's headline
// equivalence contract: streaming a faultload through the sharded
// engine at workers 4 and 8 produces JSONL output byte-identical
// to the sequential engine's — same records, same order, same encoding —
// and the streaming reader sees strictly increasing sequence numbers.
// The typo faultload over the multi-codec digest target does not divide
// evenly by 4 or 8, so shard boundaries with ragged tails are covered.
func TestShardedStreamingProfilesByteIdentical(t *testing.T) {
	run := func(workers int) []byte {
		var buf bytes.Buffer
		c := &Campaign{Target: digestTarget(), Generator: &typo.Plugin{}}
		sink := dropDuration{profile.NewJSONLSink(&buf, "digest", "typo")}
		opts := []RunOption{WithParallelism(workers),
			WithTargetFactory(func() (*Target, error) { return digestTarget(), nil })}
		n, err := c.RunStream(context.Background(), sink, opts...)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n == 0 {
			t.Fatalf("workers=%d: no records", workers)
		}
		return buf.Bytes()
	}
	want := run(1)
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: JSONL output diverges from sequential", workers)
		}
	}
	// The streaming reader round-trips the output with in-order seqs.
	next := 0
	if err := profile.ScanJSONL(bytes.NewReader(want), func(e profile.JSONLEntry) error {
		if e.Seq != next {
			return fmt.Errorf("seq %d, want %d", e.Seq, next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedTallyBypassMatchesOrderedRun: the order-insensitive tally
// path (no reassembly at all) must agree with the ordered engine on
// every count.
func TestShardedTallyBypassMatchesOrderedRun(t *testing.T) {
	ref, err := (&Campaign{Target: digestTarget(), Generator: &typo.Plugin{}}).
		RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Summarize()
	for _, workers := range []int{2, 8} {
		tally := &profile.TallySink{}
		c := &Campaign{Target: digestTarget(), Generator: &typo.Plugin{}}
		n, err := c.RunStream(context.Background(), tally,
			WithParallelism(workers),
			WithTargetFactory(func() (*Target, error) { return digestTarget(), nil }))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != len(ref.Records) {
			t.Errorf("workers=%d: %d records, want %d", workers, n, len(ref.Records))
		}
		got := tally.Summary()
		got.System = want.System
		if got != want {
			t.Errorf("workers=%d: tally summary %+v, want %+v", workers, got, want)
		}
	}
}

// breakingGen is a generator whose stream fails after good scenarios —
// the fixture for mid-stream error semantics under sharding.
type breakingGen struct {
	good int
}

func (g breakingGen) Name() string    { return "breaking" }
func (g breakingGen) View() view.View { return view.StructView{} }
func (g breakingGen) Generate(s *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(g.GenerateStream(s))
}
func (g breakingGen) GenerateStream(*confnode.Set) scenario.Source {
	return func(yield func(scenario.Scenario, error) bool) {
		for i := 0; i < g.good; i++ {
			sc := scenario.Scenario{
				ID:    fmt.Sprintf("ok/%04d", i),
				Class: "ok",
				Apply: func(*confnode.Set) error { return nil },
			}
			if !yield(sc, nil) {
				return
			}
		}
		yield(scenario.Scenario{}, errors.New("generator exploded"))
	}
}

// TestShardedMidStreamGenerationError: when every shard's stream breaks
// at the same underlying point, the engine must flush exactly the records
// before the failure — in order, gap-free — and return the generation
// error, matching the sequential contract.
func TestShardedMidStreamGenerationError(t *testing.T) {
	const good = 37 // not divisible by the worker count
	for _, workers := range []int{4, 8} {
		prof := &profile.Profile{}
		c := &Campaign{Target: digestTarget(), Generator: breakingGen{good: good}}
		n, err := c.RunStream(context.Background(), &profile.MemorySink{Profile: prof},
			WithParallelism(workers),
			WithTargetFactory(func() (*Target, error) { return digestTarget(), nil }))
		if err == nil || !strings.Contains(err.Error(), "generator exploded") {
			t.Fatalf("workers=%d: err = %v, want generation error", workers, err)
		}
		if n != good {
			t.Errorf("workers=%d: flushed %d records, want %d", workers, n, good)
		}
		for i, r := range prof.Records {
			if want := fmt.Sprintf("ok/%04d", i); r.ScenarioID != want {
				t.Errorf("workers=%d: record %d = %s, want %s", workers, i, r.ScenarioID, want)
				break
			}
		}
	}
}

// TestRunOneFastPathAllocs pins the hot path's allocation ceiling on the
// synthetic fixture: the arena, pooled scratch and baseline-prepopulated
// files map leave only a handful of unavoidable allocations (the mutated
// file's serialized bytes among them). The seed path burned ~115
// allocations per injection; the ceiling keeps the diet from silently
// regressing.
func TestRunOneFastPathAllocs(t *testing.T) {
	tgt, fl, scens := benchFaultload(t)
	if fl.incInto == nil || fl.baseBytes == nil {
		t.Fatal("fast path not enabled")
	}
	scr := getScratch()
	defer putScratch(scr)
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		sc := scens[i%len(scens)]
		i++
		if _, err := runOne(tgt, sc, fl, scr); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 6
	t.Logf("fast injection path allocs/op = %v", allocs)
	if allocs > ceiling {
		t.Errorf("fast injection path allocs/op = %v, want <= %d", allocs, ceiling)
	}
}

// TestRunOneWordViewAllocs pins the allocation ceiling of one typo
// experiment on the real nginx target (nginxTypoFaultload), simulator
// reload and probes included. The word view's fold copies only the path
// to the changed directive, on the worker's arena, and the splice renders
// only that path; what allocates is the changed line's ref parse, the
// serialized file, the simulator's parse of the changed line and of its
// server blocks, its reload and the HTTP probes.
func TestRunOneWordViewAllocs(t *testing.T) {
	tgt, fl, scens := nginxTypoFaultload(t)
	scr := getScratch()
	defer putScratch(scr)
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		sc := scens[i%len(scens)]
		i++
		if _, err := runOne(tgt, sc, fl, scr); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 17 allocs/op, 18 under -race.
	const ceiling = 18
	t.Logf("nginx typo injection allocs/op = %v", allocs)
	if allocs > ceiling {
		t.Errorf("nginx typo injection allocs/op = %v, want <= %d", allocs, ceiling)
	}
}

// TestShardedAbortFlushesPrefixThroughFailure pins the abort-fence
// contract the hard-stop design violated: with workers, an
// infrastructure failure at sequence s must still produce the exact
// contiguous prefix 0..s — including the failing scenario's own record —
// even when a lower sequence had not started at failure time.
func TestShardedAbortFlushesPrefixThroughFailure(t *testing.T) {
	mkScens := func() []scenario.Scenario {
		return []scenario.Scenario{
			{ID: "s0", Class: "c", Apply: func(*confnode.Set) error {
				time.Sleep(30 * time.Millisecond) // s1 fails before s0 starts injecting
				return nil
			}},
			{ID: "s1", Class: "c", Apply: func(*confnode.Set) error {
				return errors.New("infra down")
			}},
			{ID: "s2", Class: "c", Apply: func(*confnode.Set) error { return nil }},
			{ID: "s3", Class: "c", Apply: func(*confnode.Set) error { return nil }},
		}
	}
	c := &Campaign{Target: digestTarget(), Generator: sliceGen{mkScens()}}
	prof, err := c.RunContext(context.Background(),
		WithParallelism(2),
		WithTargetFactory(func() (*Target, error) { return digestTarget(), nil }))
	if err == nil || !strings.Contains(err.Error(), "scenario s1") {
		t.Fatalf("err = %v, want scenario s1 infrastructure error", err)
	}
	got := make([]string, len(prof.Records))
	for i, r := range prof.Records {
		got[i] = r.ScenarioID
	}
	if fmt.Sprint(got) != "[s0 s1]" {
		t.Errorf("profile = %v, want the contiguous prefix [s0 s1]", got)
	}
}

// sliceGen is a minimal slice-only generator over the struct view.
type sliceGen struct{ scens []scenario.Scenario }

func (g sliceGen) Name() string    { return "slice" }
func (g sliceGen) View() view.View { return view.StructView{} }
func (g sliceGen) Generate(*confnode.Set) ([]scenario.Scenario, error) {
	return g.scens, nil
}

// TestWorkerBuildFailureReleasesLeases: when the factory fails for one
// worker, the instances it already built for the others are released,
// freeing the loopback hosts they leased, instead of being lost.
func TestWorkerBuildFailureReleasesLeases(t *testing.T) {
	errBuild := errors.New("third build fails")
	var hosts []string
	build := func() (*Target, error) {
		if len(hosts) == 2 {
			return nil, errBuild
		}
		inst := sutpool.NewInstance(&wedgeReloadSystem{}, sutpool.Reload, nil)
		host, err := inst.LeaseHost()
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, host)
		return wedgeTarget(inst, nil), nil
	}
	c := &Campaign{Target: wedgeTarget(&wedgeSystem{}, nil), Generator: sliceGen{wedgeScens(8)}}
	_, err := c.RunContext(context.Background(), WithParallelism(4), WithTargetFactory(build))
	if !errors.Is(err, errBuild) {
		t.Fatalf("err = %v, want the build error", err)
	}
	// The 2 hosts leased before the failure are free again: the next
	// leases take them back, lowest first.
	for _, want := range hosts {
		inst := sutpool.NewInstance(&wedgeReloadSystem{}, sutpool.Reload, nil)
		got, err := inst.LeaseHost()
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Release()
		if got != want {
			t.Errorf("leased %s, want the freed %s", got, want)
		}
	}
}
