package core

import (
	"context"
	"fmt"
	"testing"

	"conferr/internal/benchfixture"
	"conferr/internal/profile"
)

// The InjectionPipeline benchmarks measure the engine's own per-injection
// overhead — mutate, back-transform, serialize — on the synthetic
// ~1k-directive configuration of internal/benchfixture, the regime the
// incremental pipeline targets: each scenario touches one directive in one
// file, so the fast path re-processes 1/32nd of what the reference
// full-clone path re-processes.

func benchTarget() *Target {
	return &Target{System: benchfixture.System{}, Formats: benchfixture.Formats()}
}

func benchFaultload(b testing.TB) (*Target, *faultload) {
	b.Helper()
	tgt := benchTarget()
	c := &Campaign{Target: tgt, Generator: benchfixture.Gen{}}
	fl, err := c.generate()
	if err != nil {
		b.Fatal(err)
	}
	if want := benchfixture.Files * benchfixture.DirsPerFile; len(fl.scens) != want {
		b.Fatalf("scenarios = %d, want %d", len(fl.scens), want)
	}
	return tgt, fl
}

// BenchmarkInjectionPipeline/fast is the incremental engine;
// BenchmarkInjectionPipeline/reference is the full-clone engine on the
// identical faultload. ns/op and allocs/op compare directly.
func BenchmarkInjectionPipeline(b *testing.B) {
	b.Run("fast", func(b *testing.B) {
		tgt, fl := benchFaultload(b)
		if fl.incInto == nil || fl.baseBytes == nil {
			b.Fatal("fast path not enabled")
		}
		scr := &scratch{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := fl.scens[i%len(fl.scens)]
			if _, err := runOne(tgt, sc, fl, scr); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/injection")
	})
	b.Run("reference", func(b *testing.B) {
		tgt, fl := benchFaultload(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := fl.scens[i%len(fl.scens)]
			if _, err := runOneReference(tgt, sc, fl.view, fl.viewSet, fl.sysSet); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/injection")
	})
}

// BenchmarkStreamingDispatch measures the streaming engine end to end —
// generation inside the workers, the worker loop, the sink — against the
// same synthetic faultload the materialized campaign benchmarks run, at 1
// and 8 workers. Comparing experiments/s with
// BenchmarkInjectionPipelineCampaign quantifies the engine's overhead over
// slice indexing. The pull cases hide GenerateShard, so the workers share
// one stream and take a lock per scenario: the path of every generator
// without shard support.
func BenchmarkStreamingDispatch(b *testing.B) {
	sharded := func() Generator { return benchfixture.Gen{} }
	pull := func() Generator {
		g := benchfixture.Gen{}
		return streamFunc{name: g.Name(), view: g.View(), src: g.GenerateStream}
	}
	for _, bc := range []struct {
		name string
		gen  func() Generator
	}{{"", sharded}, {"pull/", pull}} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%sworkers=%d", bc.name, workers), func(b *testing.B) {
				records := 0
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c := &Campaign{Target: benchTarget(), Generator: bc.gen()}
					opts := []RunOption{WithParallelism(workers)}
					if workers > 1 {
						opts = append(opts,
							WithTargetFactory(func() (*Target, error) { return benchTarget(), nil }))
					}
					tally := &profile.TallySink{}
					n, err := c.RunStream(context.Background(), tally, opts...)
					if err != nil {
						b.Fatal(err)
					}
					records = n
				}
				if want := benchfixture.Files * benchfixture.DirsPerFile; records != want {
					b.Fatalf("streamed %d records, want %d", records, want)
				}
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(records*b.N)/sec, "experiments/s")
				}
			})
		}
	}
}

// BenchmarkInjectionPipelineCampaign runs whole campaigns over the
// synthetic config at 1 and 8 workers, reporting experiments/s — the
// end-to-end number the incremental pipeline and the worker loop move.
func BenchmarkInjectionPipelineCampaign(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			records := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := &Campaign{Target: benchTarget(), Generator: benchfixture.Gen{}}
				opts := []RunOption{}
				if workers > 1 {
					opts = append(opts,
						WithParallelism(workers),
						WithTargetFactory(func() (*Target, error) { return benchTarget(), nil }))
				}
				p, err := c.RunContext(context.Background(), opts...)
				if err != nil {
					b.Fatal(err)
				}
				records = len(p.Records)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(records*b.N)/sec, "experiments/s")
			}
		})
	}
}
