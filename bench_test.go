package conferr

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5). Each benchmark runs the full experiment per iteration
// and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints, next to the usual ns/op, the detection percentages (Table 1),
// assumption satisfaction (Table 2), found/total fault classes (Table 3)
// and band shares (Figure 3). Absolute times are not expected to match the
// paper's testbed (Dell Optiplex 745; 1.1–6 s per injection) — the
// simulated SUTs start in microseconds — but the per-injection cost is
// reported for completeness as injection ns/op.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"conferr/internal/benchfixture"
	"conferr/internal/plugins/semantic"
	"conferr/internal/suts"
)

// benchTable1System runs one Table 1 column and reports its row values.
func benchTable1System(b *testing.B, m table1Mix) {
	var last Summary
	for i := 0; i < b.N; i++ {
		results, err := runCells(context.Background(), "table1", 1, m.cells(DefaultSeed))
		if err != nil {
			b.Fatal(err)
		}
		last = Summary{}
		for _, cr := range results {
			last.Merge(cr.Summary)
		}
	}
	b.ReportMetric(float64(last.Injected), "injected")
	b.ReportMetric(pctOf(last.AtStartup, last.Injected), "startup-det-%")
	b.ReportMetric(pctOf(last.ByTest, last.Injected), "test-det-%")
	b.ReportMetric(pctOf(last.Ignored, last.Injected), "ignored-%")
	if last.Injected > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(last.Injected),
			"ns/injection")
	}
}

func pctOf(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total) * 100
}

// BenchmarkTable1_MySQL regenerates the MySQL column of Table 1
// (paper: 327 injected, 83% startup, ~0% tests, 17% ignored).
func BenchmarkTable1_MySQL(b *testing.B) { benchTable1System(b, table1Mixes[0]) }

// BenchmarkTable1_Postgres regenerates the Postgres column of Table 1
// (paper: 98 injected, 78% startup, 0% tests, 22% ignored).
func BenchmarkTable1_Postgres(b *testing.B) { benchTable1System(b, table1Mixes[1]) }

// BenchmarkTable1_Apache regenerates the Apache column of Table 1
// (paper: 120 injected, 38% startup, 5% tests, 57% ignored).
func BenchmarkTable1_Apache(b *testing.B) { benchTable1System(b, table1Mixes[2]) }

// BenchmarkTable2_Structural regenerates Table 2 (paper: MySQL satisfies
// 80% of the structural assumptions, Postgres and Apache 75%).
func BenchmarkTable2_Structural(b *testing.B) {
	var res *Table2Result
	for i := 0; i < b.N; i++ {
		r, err := RunTable2Ctx(context.Background(), DefaultSeed, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.SatisfiedPercent("MySQL")), "mysql-satisfied-%")
	b.ReportMetric(float64(res.SatisfiedPercent("Postgres")), "postgres-satisfied-%")
	b.ReportMetric(float64(res.SatisfiedPercent("Apache")), "apache-satisfied-%")
}

// benchTable3System regenerates one Table 3 column, reporting how many of
// the paper's four fault classes were found / not found / not injectable.
func benchTable3System(b *testing.B, label string) {
	var res *Table3Result
	for i := 0; i < b.N; i++ {
		r, err := RunTable3Ctx(context.Background(), false, 1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	found, notFound, na := 0, 0, 0
	for _, class := range res.Classes {
		switch res.Cells[class][label] {
		case Found:
			found++
		case NotFound:
			notFound++
		case NotInjectable:
			na++
		}
	}
	b.ReportMetric(float64(found), "found")
	b.ReportMetric(float64(notFound), "not-found")
	b.ReportMetric(float64(na), "n/a")
}

// BenchmarkTable3_BIND regenerates the BIND column of Table 3
// (paper: errors 3 and 4 found; 1 and 2 not found).
func BenchmarkTable3_BIND(b *testing.B) { benchTable3System(b, "BIND") }

// BenchmarkTable3_Djbdns regenerates the djbdns column of Table 3
// (paper: errors 1 and 2 N/A; 3 and 4 not found).
func BenchmarkTable3_Djbdns(b *testing.B) { benchTable3System(b, "djbdns") }

// BenchmarkFigure3_Compare regenerates Figure 3 (paper: Postgres detects
// >75% of value typos for ~45% of directives; MySQL detects <25% for
// ~45% of its).
func BenchmarkFigure3_Compare(b *testing.B) {
	var res *Figure3Result
	for i := 0; i < b.N; i++ {
		r, err := RunFigure3Ctx(context.Background(), DefaultSeed, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	for _, band := range res.Bandings {
		prefix := "pg-"
		if band.System == "MySQL" {
			prefix = "mysql-"
		}
		b.ReportMetric(band.Share[Excellent]*100, prefix+"excellent-%")
		b.ReportMetric(band.Share[Poor]*100, prefix+"poor-%")
	}
}

// BenchmarkInjectionOverhead measures the cost of complete injection
// experiments (mutate, back-transform, serialize, start SUT, functional
// test, stop) — the per-injection figure the paper reports as seconds on
// its testbed (§5.2).
//
// The Postgres variant runs a whole small campaign against the simulated
// Postgres per iteration. The Synthetic1k variant runs a campaign over a
// ~1k-directive configuration spread across 32 files — the regime the
// incremental pipeline targets, where each scenario dirties one file and
// every other file rides on the campaign's cached baseline bytes.
func BenchmarkInjectionOverhead(b *testing.B) {
	b.Run("Postgres", func(b *testing.B) {
		tgt, err := PostgresTargetAt(0)
		if err != nil {
			b.Fatal(err)
		}
		gen := TypoGenerator(TypoOptions{Seed: 1, PerModel: 1})
		records := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := &Campaign{Target: tgt.Target, Generator: gen}
			p, err := c.RunContext(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			records = len(p.Records)
		}
		if records > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records),
				"ns/injection")
		}
	})
	b.Run("Synthetic1k", func(b *testing.B) {
		tgt := &Target{System: benchfixture.System{}, Formats: benchfixture.Formats()}
		records := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := &Campaign{Target: tgt, Generator: benchfixture.Gen{}}
			p, err := c.RunContext(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			records = len(p.Records)
		}
		if records > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records),
				"ns/injection")
		}
	})
}

// Ablation benches: design choices DESIGN.md calls out.

// BenchmarkAblation_TypoSubmodels reports the per-submodel detection rate
// against Postgres — how much each of the five §2.1 error categories
// contributes to the profile.
func BenchmarkAblation_TypoSubmodels(b *testing.B) {
	var prof *Profile
	for i := 0; i < b.N; i++ {
		tgt, err := PostgresTargetAt(0)
		if err != nil {
			b.Fatal(err)
		}
		c := &Campaign{Target: tgt.Target, Generator: TypoGenerator(TypoOptions{Seed: 2, PerModel: 20})}
		p, err := c.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		prof = p
	}
	for _, cs := range prof.Stats(nil).Classes() {
		s := cs.Summary
		b.ReportMetric(pctOf(s.AtStartup+s.ByTest, s.Injected), cs.Class+"-det-%")
	}
}

// BenchmarkAblation_KeyboardLayout compares the faultload sizes of the US
// and Swiss-German layouts — layout choice changes which substitution and
// insertion typos are realistic.
func BenchmarkAblation_KeyboardLayout(b *testing.B) {
	var us, ch int
	for i := 0; i < b.N; i++ {
		tgt, err := PostgresTargetAt(0)
		if err != nil {
			b.Fatal(err)
		}
		cUS := &Campaign{Target: tgt.Target, Generator: TypoGenerator(TypoOptions{Seed: 3})}
		pUS, err := cUS.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		tgt2, err := PostgresTargetAt(0)
		if err != nil {
			b.Fatal(err)
		}
		cCH := &Campaign{Target: tgt2.Target, Generator: TypoGenerator(TypoOptions{Seed: 3, SwissKeyboard: true})}
		pCH, err := cCH.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		us, ch = len(pUS.Records), len(pCH.Records)
	}
	b.ReportMetric(float64(us), "us-scenarios")
	b.ReportMetric(float64(ch), "swiss-scenarios")
}

// BenchmarkAblation_SemanticExtended runs the extended RFC-1912 classes
// against both name servers.
func BenchmarkAblation_SemanticExtended(b *testing.B) {
	var res *Table3Result
	for i := 0; i < b.N; i++ {
		r, err := RunTable3Ctx(context.Background(), true, 1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(len(res.Classes)), "classes")
	_ = semantic.AllClasses
}

// BenchmarkEditBenchmark runs the §5.5 configuration-process benchmark
// (paper: Postgres more resilient to near-edit typos than MySQL).
func BenchmarkEditBenchmark(b *testing.B) {
	var res *EditBenchmarkResult
	for i := 0; i < b.N; i++ {
		r, err := RunEditBenchmarkCtx(context.Background(), DefaultSeed, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Rates["Postgres"]*100, "pg-det-%")
	b.ReportMetric(res.Rates["MySQL"]*100, "mysql-det-%")
}

// Parallel-runner throughput benches: the same campaign at increasing
// worker counts. The profile is identical at every width (the runner's
// determinism contract); only wall-clock changes.

// Fixed primary ports for this file, distinct from every other fixed port
// in the repo.
const (
	benchSimPort       = 23920
	benchSlowPort      = 23921
	benchLifecyclePort = 23922
)

// BenchmarkSUTLifecycle compares the three worker-SUT lifecycles on the
// nginx simulator: cold (start/stop per experiment), reload (warm pooled
// instances re-configured in place) and validate (parse-only). The
// experiments/s metric is what the CI bench-delta guard compares —
// reload must beat cold, or the pooled lifecycle has lost its point.
// Profiles are byte-identical between cold and reload (the equivalence
// tests pin it); validate trades functional-test coverage for speed.
func BenchmarkSUTLifecycle(b *testing.B) {
	gen := func() Generator { return TypoGenerator(TypoOptions{Seed: DefaultSeed}) }
	for _, mode := range []Lifecycle{LifecycleCold, LifecycleReload, LifecycleValidate} {
		b.Run(mode.String(), func(b *testing.B) {
			records := 0
			counters := &LifecycleCounters{}
			for i := 0; i < b.N; i++ {
				r := &Runner{
					Factory: NginxTargetAt, Generator: gen(), Port: benchLifecyclePort,
					Lifecycle: mode, PoolCounters: counters,
				}
				p, err := r.Run(context.Background(), WithParallelism(4))
				if err != nil {
					b.Fatal(err)
				}
				records = len(p.Records)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(records*b.N)/sec, "experiments/s")
			}
			snap := counters.Snapshot()
			if mode == LifecycleReload && snap.Reloads == 0 {
				b.Fatal("reload bench never reloaded")
			}
			if mode == LifecycleValidate && snap.Validates == 0 {
				b.Fatal("validate bench never validated")
			}
		})
	}
}

// benchCampaignWorkers runs one campaign per iteration at the given width
// and reports experiments per second.
func benchCampaignWorkers(b *testing.B, factory TargetFactory, gen func() Generator, port, workers int) {
	b.Helper()
	records := 0
	for i := 0; i < b.N; i++ {
		r := &Runner{Factory: factory, Generator: gen(), Port: port}
		p, err := r.Run(context.Background(), WithParallelism(workers))
		if err != nil {
			b.Fatal(err)
		}
		records = len(p.Records)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(records*b.N)/sec, "experiments/s")
	}
}

// BenchmarkCampaignThroughput_Sim measures the in-process simulators,
// where one experiment costs tens of microseconds of CPU. Parallel gains
// here track the machine's core count.
func BenchmarkCampaignThroughput_Sim(b *testing.B) {
	gen := func() Generator { return TypoGenerator(TypoOptions{Seed: DefaultSeed}) }
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchCampaignWorkers(b, MySQLTargetAt, gen, benchSimPort, workers)
		})
	}
}

// slowSystem adds a fixed start latency to a SUT, modeling the regime the
// paper reports for real server binaries (1.1–6 s per injection, §5.2) at
// a benchmark-friendly scale. This is where the parallel runner pays off
// regardless of core count: workers overlap the waiting.
type slowSystem struct {
	suts.System
	delay time.Duration
}

// Start implements suts.System.
func (s slowSystem) Start(files suts.Files) error {
	time.Sleep(s.delay)
	return s.System.Start(files)
}

// slowFactory wraps the Postgres target with the given start latency.
func slowFactory(delay time.Duration) TargetFactory {
	return func(port int) (*SystemTarget, error) {
		st, err := PostgresTargetAt(port)
		if err != nil {
			return nil, err
		}
		sys := slowSystem{System: st.Target.System, delay: delay}
		t := *st.Target
		t.System = sys
		return &SystemTarget{System: st.System, Target: &t}, nil
	}
}

// BenchmarkCampaignThroughput_SlowSUT measures a SUT with 500µs startup
// latency — a 2000x-scaled-down stand-in for the paper's real servers.
// N workers deliver close to N-fold throughput here even on one core.
func BenchmarkCampaignThroughput_SlowSUT(b *testing.B) {
	factory := slowFactory(500 * time.Microsecond)
	gen := func() Generator { return TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 10}) }
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchCampaignWorkers(b, factory, gen, benchSlowPort, workers)
		})
	}
}
