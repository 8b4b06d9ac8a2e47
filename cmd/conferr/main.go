// Command conferr runs ConfErr campaigns and the paper's evaluation
// experiments against the built-in simulated systems.
//
//	conferr table1 [-seed N] [-workers N]   reproduce Table 1 (typo resilience)
//	conferr table2 [-seed N] [-n N] [-workers N]
//	                                        reproduce Table 2 (structural variations)
//	conferr table3 [-extended] [-workers N] reproduce Table 3 (DNS semantic errors)
//	conferr figure3 [-seed N] [-n N] [-workers N]
//	                                        reproduce Figure 3 (MySQL vs Postgres)
//	conferr campaign -system S -plugin P [-seed N] [-workers N] [-records]
//	                 [-out FILE]            run one custom campaign and summarize
//	                                        (-target is an alias for -system)
//	conferr matrix [-systems a,b] [-plugins x,y] [-workers N] [-limit N]
//	               [-rounds N] [-sample N] [-stream-out FILE] [-no-duration]
//	               [-lifecycle cold|reload|validate] [-memnet]
//	                                        run a target × generator suite with
//	                                        streamed faultloads and JSONL profiles
//	conferr dist -workers h:p,h:p -shards N -system S -plugin P [-out FILE]
//	                                        distribute one campaign across sutd
//	                                        worker daemons, with retry/resume and
//	                                        a byte-identical merged profile
//	conferr report FILE [-diff A B] [-fail-regress PP] [-band-key K] [-workers N]
//	                                        stream a JSONL or cprof profile into
//	                                        Table 1-3 / Figure 3 shapes, or diff
//	                                        two campaigns as a regression gate
//	conferr convert IN OUT                  translate profiles between JSONL and
//	                                        cprof, losslessly in both directions
//	conferr list                            list registered systems and plugins
//	conferr all [-seed N] [-workers N]      run every experiment
//
// Systems and plugins are resolved from the conferr registry; -workers
// fans the faultload out over N parallel workers, each with its own SUT
// instance, without changing the profile.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"syscall"
	"time"

	"conferr"
	"conferr/internal/dist"
	"conferr/internal/profile"
	"conferr/internal/profile/cprof"
)

func main() {
	// Batch campaigns are throughput-bound and hold bounded memory (the
	// streaming engine keeps peak RSS in the tens of MB even on
	// million-scenario runs), so the default GC cadence mostly burns CPU
	// re-collecting the per-experiment garbage. Relax it unless the user
	// set their own GOGC.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:]))
}

func run(ctx context.Context, args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "table1":
		err = cmdTable1(ctx, rest)
	case "table2":
		err = cmdTable2(ctx, rest)
	case "table3":
		err = cmdTable3(ctx, rest)
	case "figure3":
		err = cmdFigure3(ctx, rest)
	case "campaign":
		err = cmdCampaign(ctx, rest)
	case "matrix":
		err = cmdMatrix(ctx, rest)
	case "dist":
		err = cmdDist(ctx, rest)
	case "report":
		err = cmdReport(ctx, rest)
	case "convert":
		err = cmdConvert(ctx, rest)
	case "editbench":
		err = cmdEditBench(ctx, rest)
	case "compare":
		err = cmdCompare(ctx, rest)
	case "list":
		err = cmdList(rest)
	case "all":
		err = cmdAll(ctx, rest)
	case "help", "-h", "--help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "conferr: unknown command %q\n", cmd)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "conferr:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: conferr <command> [flags]

commands:
  table1    reproduce Table 1: resilience to typos (MySQL, Postgres, Apache)
  table2    reproduce Table 2: resilience to structural errors
  table3    reproduce Table 3: resilience to semantic errors (BIND, djbdns)
  figure3   reproduce Figure 3: MySQL vs Postgres value-typo comparison
  campaign  run one campaign: -system <name> (alias -target) -plugin <name> [-workers N]
            [-out FILE]
  matrix    run a target × generator suite: -systems a,b -plugins x,y [-workers N]
            [-limit N] [-rounds N] [-sample N] [-stream-out FILE] [-no-duration]
            [-lifecycle cold|reload|validate] [-memnet]
  dist      run one campaign across remote workers: -workers host:port,...
            -shards N -system <name> -plugin <name> [-out FILE] [-resume]
            [-no-duration] [-tally] (workers: sutd -serve host:port)
  report    fold a profile file (JSONL or .cprof, - for stdin) into the paper's
            report shapes; -diff BEFORE AFTER compares two campaigns and
            -fail-regress N.N gates CI on detection-rate regressions
  convert   translate a profile between JSONL and .cprof (extension-switched),
            losslessly in both directions [-no-duration]
  editbench run the §5.5 configuration-process benchmark (typos near edits)
  compare   quantify the impact of MySQL's missing checks (before/after)
  list      list registered systems and plugins
  all       run every experiment

registered systems: %s
registered plugins: %s
`, strings.Join(conferr.RegisteredTargets(), ", "),
		strings.Join(conferr.RegisteredGenerators(), ", "))
}

// recordRetentionWarn is the in-memory record count past which the
// campaign subcommand suggests a streaming run instead.
const recordRetentionWarn = 100_000

// workersFlag adds the shared -workers flag to a flag set.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 1, "parallel campaign workers (0 = GOMAXPROCS)")
}

// cellFlags registers on fs the campaign-cell flags matrix and dist
// share, each writing into spec.
func cellFlags(fs *flag.FlagSet, spec *dist.CampaignSpec) {
	fs.Int64Var(&spec.Seed, "seed", conferr.DefaultSeed, "faultload seed")
	fs.IntVar(&spec.PerModel, "per-model", 0, "typo scenarios per submodel (0 = all)")
	fs.IntVar(&spec.PerClass, "per-class", 0, "structural/variation scenarios per class (0 = all)")
	fs.IntVar(&spec.Rounds, "rounds", 0, "replay the faultload N times with round-prefixed IDs (scale harness)")
	fs.IntVar(&spec.Sample, "sample", 0, "reservoir-sample N scenarios (0 = off)")
	fs.IntVar(&spec.Limit, "limit", 0, "cap the faultload, lazily (0 = off)")
	fs.StringVar(&spec.Lifecycle, "lifecycle", "cold", "worker SUT lifecycle: cold, reload (warm instances) or validate (parse-only)")
	fs.BoolVar(&spec.Memnet, "memnet", false, "serve SUTs over the in-process transport instead of kernel loopback TCP")
	fs.BoolVar(&spec.NoDuration, "no-duration", false, "zero duration_ns in records, making equivalent runs byte-comparable")
	fs.DurationVar(&spec.ExperimentTimeout, "experiment-timeout", 0, "watchdog deadline per experiment; expiry records an infrastructure error and the campaign continues (0 = off)")
	fs.DurationVar(&spec.PhaseTimeout, "phase-timeout", 0, "watchdog deadline per SUT phase (start, reload, probe, stop); expiry quarantines the instance and records an infrastructure error (0 = off)")
}

// diagFlags holds the shared profiling/tracing flags of the campaign and
// matrix subcommands, so perf work can capture evidence from real
// campaigns without patching the binary.
type diagFlags struct {
	cpuprofile *string
	memprofile *string
	trace      *string
}

// addDiagFlags registers -cpuprofile, -memprofile and -trace on fs.
func addDiagFlags(fs *flag.FlagSet) *diagFlags {
	return &diagFlags{
		cpuprofile: fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file"),
		memprofile: fs.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file"),
		trace:      fs.String("trace", "", "write a runtime execution trace of the run to this file"),
	}
}

// start begins the requested captures and returns a stop function that
// finishes them (flushing the heap profile last, after a final GC, so it
// reflects live memory rather than transient garbage).
func (d *diagFlags) start() (func() error, error) {
	var stops []func() error
	fail := func(err error) (func() error, error) {
		for i := len(stops) - 1; i >= 0; i-- {
			_ = stops[i]()
		}
		return nil, err
	}
	if *d.cpuprofile != "" {
		f, err := os.Create(*d.cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return fail(err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if *d.trace != "" {
		f, err := os.Create(*d.trace)
		if err != nil {
			return fail(err)
		}
		if err := trace.Start(f); err != nil {
			_ = f.Close()
			return fail(err)
		}
		stops = append(stops, func() error {
			trace.Stop()
			return f.Close()
		})
	}
	if *d.memprofile != "" {
		path := *d.memprofile
		stops = append(stops, func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				_ = f.Close()
				return err
			}
			return f.Close()
		})
	}
	return func() error {
		var firstErr error
		// Registration order is cpu, trace, mem: running the stops forward
		// ends the CPU profile and trace before the heap snapshot's forced
		// GC, so the capture files never record the capture itself.
		for _, stop := range stops {
			if err := stop(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}

// parseFlags parses args into fs and refuses any int or duration flag
// set to a negative value, naming the flag: a negative count, worker
// number or timeout would otherwise run silently as "off", "all" or a
// default and print the wrong result. Seeds are int64 and stay signed.
func parseFlags(fs *flag.FlagSet, args []string) error {
	_ = fs.Parse(args) // the flag sets exit on a parse error
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		g, ok := f.Value.(flag.Getter)
		if !ok {
			return
		}
		switch v := g.Get().(type) {
		case int:
			if v < 0 {
				err = fmt.Errorf("-%s is negative (%d)", f.Name, v)
			}
		case time.Duration:
			if v < 0 {
				err = fmt.Errorf("-%s is negative (%s)", f.Name, v)
			}
		}
	})
	return err
}

func cmdTable1(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	seed := fs.Int64("seed", conferr.DefaultSeed, "faultload seed")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	res, err := conferr.RunTable1Ctx(ctx, *seed, *workers)
	if err != nil {
		return err
	}
	fmt.Println("Table 1. Resilience to typos")
	fmt.Print(res.Format())
	return nil
}

func cmdTable2(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	seed := fs.Int64("seed", conferr.DefaultSeed, "variation seed")
	n := fs.Int("n", 10, "variant configurations per class")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	res, err := conferr.RunTable2Ctx(ctx, *seed, *n, *workers)
	if err != nil {
		return err
	}
	fmt.Println("Table 2. Resilience to structural errors")
	fmt.Print(res.Format())
	return nil
}

func cmdTable3(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table3", flag.ExitOnError)
	extended := fs.Bool("extended", false, "include extension fault classes")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	res, err := conferr.RunTable3Ctx(ctx, *extended, *workers)
	if err != nil {
		return err
	}
	fmt.Println("Table 3. Resilience to semantic errors")
	fmt.Print(res.Format())
	return nil
}

func cmdFigure3(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figure3", flag.ExitOnError)
	seed := fs.Int64("seed", conferr.DefaultSeed, "faultload seed")
	n := fs.Int("n", 20, "typo experiments per directive")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	res, err := conferr.RunFigure3Ctx(ctx, *seed, *n, *workers)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3. Resilience to typos in directive values, across all directives")
	fmt.Print(res.Format())
	return nil
}

func cmdEditBench(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("editbench", flag.ExitOnError)
	seed := fs.Int64("seed", conferr.DefaultSeed, "faultload seed")
	n := fs.Int("n", 20, "typo variants per edit")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	res, err := conferr.RunEditBenchmarkCtx(ctx, *seed, *n, *workers)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

// compareDefaultN is compare's -n default, which -n 0 also selects.
const compareDefaultN = 15

// cmdCompare runs the development-feedback comparison: the same typo
// faultload against MySQL with and without the simple checks the paper's
// profile suggests, diffing the two resilience profiles.
func cmdCompare(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	seed := fs.Int64("seed", conferr.DefaultSeed, "faultload seed")
	n := fs.Int("n", compareDefaultN, "value typos per directive")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// 0 selects the default, as in the other artifact commands; passed
	// on, it would reach TypoOptions.PerDirective, where it means
	// uncapped.
	if *n == 0 {
		*n = compareDefaultN
	}

	const port = 23467
	campaign := func(system string) (*conferr.Profile, error) {
		factory, err := conferr.LookupTarget(system)
		if err != nil {
			return nil, err
		}
		r := conferr.NewRunner(factory, conferr.TypoGenerator(conferr.TypoOptions{
			Seed: *seed, ValuesOnly: true, PerDirective: *n,
		}))
		r.Port = port
		return r.Run(ctx, conferr.WithParallelism(*workers))
	}
	before, err := campaign("mysql")
	if err != nil {
		return err
	}
	after, err := campaign("mysql-strict")
	if err != nil {
		return err
	}
	sb, sa := before.Summarize(), after.Summarize()
	sb.System, sa.System = "before", "after"
	fmt.Println("MySQL value-typo resilience, before vs after the missing checks:")
	fmt.Print(profile.FormatTable1(sb, sa))
	cmp := conferr.CompareProfiles(before, after)
	fmt.Printf("improved=%d regressed=%d unchanged=%d\n",
		len(cmp.Improved), len(cmp.Regressed), cmp.Unchanged)
	return nil
}

func cmdCampaign(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	var system string
	fs.StringVar(&system, "system", "", "target system (see: conferr list)")
	fs.StringVar(&system, "target", "", "alias for -system")
	plugin := fs.String("plugin", "typo", "error generator plugin (see: conferr list)")
	seed := fs.Int64("seed", conferr.DefaultSeed, "faultload seed")
	perModel := fs.Int("per-model", 0, "typo scenarios per submodel (0 = all)")
	records := fs.Bool("records", false, "print the full resilience profile")
	outPath := fs.String("out", "", "write the profile to this file for report and convert (.cprof = compact binary frames, else JSONL)")
	port := fs.Int("port", 23901, "primary target port; the faultload embeds it, so a fixed port keeps campaigns reproducible across invocations (0 = allocate)")
	lifecycleS := fs.String("lifecycle", "cold", "worker SUT lifecycle: cold, reload (warm instances) or validate (parse-only)")
	workers := workersFlag(fs)
	diag := addDiagFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *outPath == "-" {
		return errors.New("campaign: -out - is not supported: the summary owns stdout")
	}
	lifecycle, err := conferr.ParseLifecycle(*lifecycleS)
	if err != nil {
		return err
	}
	stopDiag, err := diag.start()
	if err != nil {
		return err
	}
	defer func() { _ = stopDiag() }()

	runner, err := conferr.NewRunnerFor(system, *plugin, conferr.GeneratorOptions{
		Seed: *seed, PerModel: *perModel,
	})
	if err != nil {
		return err
	}
	runner.Port = *port
	runner.Lifecycle = lifecycle
	var counters *conferr.LifecycleCounters
	if lifecycle != conferr.LifecycleCold {
		counters = &conferr.LifecycleCounters{}
		runner.PoolCounters = counters
	}
	// Open the output before the run, so an unwritable path fails before
	// any experiment does.
	var out *cprof.File
	if *outPath != "" {
		if out, err = cprof.OpenPath(*outPath); err != nil {
			return err
		}
	}
	prof, err := runner.Run(ctx,
		conferr.WithParallelism(*workers),
		conferr.WithBaselineCheck())
	if err != nil {
		if out != nil {
			out.Close(false)
		}
		return err
	}
	if counters != nil {
		fmt.Printf("lifecycle=%s %s\n", lifecycle, counters.Snapshot())
	}
	if n := len(prof.Records); n >= recordRetentionWarn {
		fmt.Fprintf(os.Stderr, "conferr: warning: %d records retained in memory; for faultloads this size prefer `conferr matrix -stream-out FILE` (bounded memory) or `conferr dist`\n", n)
	}
	s := prof.Summarize()
	fmt.Printf("system=%s generator=%s workers=%d\n", prof.System, prof.Generator, *workers)
	fmt.Print(profile.FormatTable1(s))
	fmt.Println()
	fmt.Println("Per-class detection:")
	fmt.Print(conferr.DetectionByClass(prof))
	if *records {
		fmt.Println()
		fmt.Print(prof.FormatRecords())
	}
	if out != nil {
		if err := writeProfile(out, prof); err != nil {
			return err
		}
		fmt.Println("profile written to", *outPath)
	}
	return nil
}

// writeProfile writes an in-memory profile to out as one campaign's
// record stream and closes it.
func writeProfile(out *cprof.File, prof *conferr.Profile) error {
	var err error
	sink := out.Sink(prof.System, prof.Generator)
	for _, r := range prof.Records {
		if err = sink.Write(r); err != nil {
			break
		}
	}
	if cerr := out.Close(err == nil); err == nil {
		err = cerr
	}
	return err
}

// cmdMatrix runs a target × generator matrix as one streaming campaign
// suite: every cell's faultload is pulled lazily from its generator and
// fanned out under a shared worker budget, so neither the scenario lists
// nor (with -stream-out) the profiles ever materialize in memory —
// million-scenario faultloads run in bounded space.
func cmdMatrix(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	systems := fs.String("systems", "", "comma-separated registered systems (empty or \"all\" = every system)")
	plugins := fs.String("plugins", "typo", "comma-separated registered plugins (\"all\" = every plugin)")
	var spec dist.CampaignSpec
	cellFlags(fs, &spec)
	streamOut := fs.String("stream-out", "", "stream records of all cells to this file instead of keeping profiles in memory (.cprof = compact binary frames, - = JSONL on stdout, else JSONL)")
	basePort := fs.Int("base-port", 24100, "primary port of cell i is base-port+i, keeping faultloads reproducible (0 = allocate)")
	keepGoing := fs.Bool("keep-going", false, "suite level: keep running the other cells when one cell fails")
	workers := workersFlag(fs)
	diag := addDiagFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	lifecycle, err := conferr.ParseLifecycle(spec.Lifecycle)
	if err != nil {
		return err
	}
	stopDiag, err := diag.start()
	if err != nil {
		return err
	}
	defer func() { _ = stopDiag() }()

	sysNames := splitNames(*systems)
	if isAll(sysNames) {
		sysNames = conferr.RegisteredTargets()
	}
	plugNames := splitNames(*plugins)
	if isAll(plugNames) {
		plugNames = conferr.RegisteredGenerators()
	}
	entries, skipped, err := conferr.MatrixEntries(sysNames, plugNames, conferr.GeneratorOptions{
		Seed: spec.Seed, PerModel: spec.PerModel, PerClass: spec.PerClass,
	})
	if err != nil {
		return err
	}
	for _, s := range skipped {
		fmt.Fprintln(os.Stderr, "conferr: skipping", s)
	}
	if len(entries) == 0 {
		return fmt.Errorf("matrix is empty (all %d pairs skipped)", len(skipped))
	}

	mo := conferr.MatrixOptions{
		Workers:           *workers,
		BasePort:          *basePort,
		Limit:             spec.Limit,
		Rounds:            spec.Rounds,
		Sample:            spec.Sample,
		KeepGoing:         *keepGoing,
		Lifecycle:         lifecycle,
		InMemory:          spec.Memnet,
		ExperimentTimeout: spec.ExperimentTimeout,
		PhaseTimeout:      spec.PhaseTimeout,
	}
	var counters *conferr.LifecycleCounters
	if lifecycle != conferr.LifecycleCold {
		counters = &conferr.LifecycleCounters{}
		mo.PoolCounters = counters
	}
	// With `-stream-out -` the record stream owns stdout, so the summary
	// table and notes move to stderr.
	info := io.Writer(os.Stdout)
	if *streamOut == "-" {
		info = os.Stderr
	}
	var out *cprof.File
	if *streamOut != "" {
		if out, err = cprof.OpenPath(*streamOut); err != nil {
			return err
		}
		mo.SinkFor = func(e conferr.MatrixEntry) conferr.Sink {
			sink := out.Sink(e.System, e.Plugin)
			if spec.NoDuration {
				sink = conferr.StripDurations(sink)
			}
			return sink
		}
	} else {
		// Without a stream destination the CLI prints only the summary
		// table, yet the suite would dutifully accumulate every record in
		// memory — on large matrices roughly 40% of wall clock went to the
		// GC walking profiles nobody reads. Route records to the discard
		// sink instead; the suite's tally still feeds the summaries.
		mo.SinkFor = func(conferr.MatrixEntry) conferr.Sink { return conferr.DiscardSink }
	}

	res, err := conferr.RunMatrix(ctx, entries, mo)
	if res != nil {
		printMatrixResults(info, res)
		for _, cr := range res.Results {
			if cr.Err == nil && cr.Records == 0 {
				fmt.Fprintf(os.Stderr, "conferr: cell %s is empty: its faultload has no scenarios\n", cr.Name)
			}
		}
	}
	if counters != nil {
		fmt.Fprintf(info, "lifecycle=%s %s\n", lifecycle, counters.Snapshot())
	}
	if out != nil {
		// A failed close must fail the command: buffered records exist
		// nowhere else. A cprof output gets its trailer index.
		if cerr := out.Close(true); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if *streamOut != "" && *streamOut != "-" {
		fmt.Fprintln(info, "records streamed to", *streamOut)
	}
	return nil
}

// printMatrixResults renders one row per suite cell.
func printMatrixResults(w io.Writer, res *conferr.SuiteResult) {
	fmt.Fprintf(w, "%-28s %12s %10s %8s %8s %8s %12s %10s\n",
		"campaign", "records", "startup", "test", "ignored", "not-exp", "duration", "exp/s")
	for _, cr := range res.Results {
		if cr.Err != nil {
			fmt.Fprintf(w, "%-28s failed: %v\n", cr.Name, cr.Err)
			continue
		}
		s := cr.Summary
		rate := ""
		if sec := cr.Duration.Seconds(); sec > 0 {
			rate = fmt.Sprintf("%.0f", float64(cr.Records)/sec)
		}
		fmt.Fprintf(w, "%-28s %12d %10d %8d %8d %8d %12s %10s\n",
			cr.Name, cr.Records, s.AtStartup, s.ByTest, s.Ignored, s.NotExpressible,
			cr.Duration.Round(time.Millisecond), rate)
	}
}

// isAll reports whether a name list means "every registered one": empty,
// or the single wildcard "all".
func isAll(names []string) bool {
	return len(names) == 0 || (len(names) == 1 && names[0] == "all")
}

// splitNames parses a comma-separated flag value, dropping repeats: a
// duplicated name would run the same matrix cell twice and, under
// -stream-out, merge both cells' records into one JSONL profile.
func splitNames(s string) []string {
	var out []string
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" && !seen[part] {
			seen[part] = true
			out = append(out, part)
		}
	}
	return out
}

func cmdList(args []string) error {
	fmt.Println("systems:")
	for _, name := range conferr.RegisteredTargets() {
		fmt.Println(" ", name)
	}
	fmt.Println("plugins:")
	for _, name := range conferr.RegisteredGenerators() {
		fmt.Println(" ", name)
	}
	return nil
}

func cmdAll(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	seed := fs.Int64("seed", conferr.DefaultSeed, "faultload seed")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	w := fmt.Sprint(*workers)
	if err := cmdTable1(ctx, []string{"-seed", fmt.Sprint(*seed), "-workers", w}); err != nil {
		return err
	}
	fmt.Println()
	if err := cmdTable2(ctx, []string{"-seed", fmt.Sprint(*seed), "-workers", w}); err != nil {
		return err
	}
	fmt.Println()
	if err := cmdTable3(ctx, []string{"-workers", w}); err != nil {
		return err
	}
	fmt.Println()
	if err := cmdFigure3(ctx, []string{"-seed", fmt.Sprint(*seed), "-workers", w}); err != nil {
		return err
	}
	fmt.Println()
	return cmdEditBench(ctx, []string{"-seed", fmt.Sprint(*seed), "-workers", w})
}
