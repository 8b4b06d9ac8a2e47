package core

import (
	"context"
	"fmt"
	"testing"

	"conferr/internal/benchfixture"
	"conferr/internal/formats"
	"conferr/internal/formats/nginxconf"
	"conferr/internal/memnet"
	"conferr/internal/plugins/typo"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/sutpool"
	"conferr/internal/suts/nginx"
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

// collectFaultload generates c's faultload as the engine does
// (openStream) and materializes its validated scenarios.
func collectFaultload(tb testing.TB, c *Campaign) (*faultload, []scenario.Scenario) {
	tb.Helper()
	fl, src, err := c.openStream()
	if err != nil {
		tb.Fatal(err)
	}
	scens, err := scenario.Collect(src)
	if err != nil {
		tb.Fatal(err)
	}
	return fl, scens
}

func benchFaultload(b testing.TB) (*Target, *faultload, []scenario.Scenario) {
	b.Helper()
	tgt := benchTarget()
	fl, scens := collectFaultload(b, &Campaign{Target: tgt, Generator: benchfixture.Gen{}})
	if want := benchfixture.Files * benchfixture.DirsPerFile; len(scens) != want {
		b.Fatalf("scenarios = %d, want %d", len(scens), want)
	}
	return tgt, fl, scens
}

// nginxTypoFaultload is the real nginx target — its nested nginx.conf,
// its functional tests — warm-reloading over an in-process memnet
// network, with the full typo faultload: the regime the word view's
// path-granular copy targets, where one experiment writes one word of
// one line three sections deep. The instance is shut down at cleanup.
func nginxTypoFaultload(tb testing.TB) (*Target, *faultload, []scenario.Scenario) {
	tb.Helper()
	srv, err := nginx.New(0)
	if err != nil {
		tb.Fatal(err)
	}
	srv.SetTransport(memnet.New())
	inst := sutpool.NewInstance(srv, sutpool.Reload, nil)
	tb.Cleanup(func() { _ = inst.Shutdown() })
	tgt := &Target{
		System:  inst,
		Formats: map[string]formats.Format{nginx.ConfigFile: nginxconf.Format{}},
		Tests:   nginx.Tests(srv),
	}
	fl, scens := collectFaultload(tb, &Campaign{Target: tgt, Generator: &typo.Plugin{}})
	if fl.incInto == nil || fl.baseBytes == nil {
		tb.Fatal("fast path not enabled")
	}
	return tgt, fl, scens
}

// BenchmarkInjectionPipeline/fast is the incremental engine;
// BenchmarkInjectionPipeline/reference is the full-clone engine on the
// identical faultload. ns/op and allocs/op compare directly.
// BenchmarkInjectionPipeline/nginx-typo is one runOne per op over
// nginxTypoFaultload: the fast path plus the simulator's reload and
// probes, the per-experiment cost of the nginx-reload benchmark workload.
func BenchmarkInjectionPipeline(b *testing.B) {
	b.Run("fast", func(b *testing.B) {
		tgt, fl, scens := benchFaultload(b)
		if fl.incInto == nil || fl.baseBytes == nil {
			b.Fatal("fast path not enabled")
		}
		scr := &scratch{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := scens[i%len(scens)]
			if _, err := runOne(tgt, sc, fl, scr); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/injection")
	})
	b.Run("nginx-typo", func(b *testing.B) {
		tgt, fl, scens := nginxTypoFaultload(b)
		scr := &scratch{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runOne(tgt, scens[i%len(scens)], fl, scr); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/injection")
	})
	b.Run("reference", func(b *testing.B) {
		tgt, fl, scens := benchFaultload(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := scens[i%len(scens)]
			if _, err := runOneReference(tgt, sc, fl.view, fl.viewSet, fl.sysSet); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/injection")
	})
}

// BenchmarkStreamingDispatch measures the streaming engine end to end —
// generation inside the workers, the worker loop, the sink — over the
// synthetic faultload, at 1 and 8 workers, into a tally sink. Comparing
// experiments/s with BenchmarkInjectionPipelineCampaign, which runs the
// same faultload into an in-memory profile, isolates what keeping the
// profile costs.
func BenchmarkStreamingDispatch(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			records := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := &Campaign{Target: benchTarget(), Generator: benchfixture.Gen{}}
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
