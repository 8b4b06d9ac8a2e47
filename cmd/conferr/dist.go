package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"conferr"
	"conferr/internal/dist"
	"conferr/internal/profile"
	"conferr/internal/profile/cprof"
)

// cmdDist runs one campaign distributed across sutd worker daemons: the
// coordinator ships each worker only a shard spec (generation is a pure
// function of seed and shard, so no scenario crosses the wire), retries
// failed or stalled shards on surviving workers, and merges the streams
// into a profile byte-identical to a single-process run. A killed
// coordinator resumes from its checkpoint, completing only the missing
// sequence range.
func cmdDist(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	workersCSV := fs.String("workers", "", "comma-separated worker endpoints (host:port,... — start each with `sutd -serve host:port`)")
	shards := fs.Int("shards", 0, "shard count (0 = one per worker); shards are the unit of retry and rebalancing")
	var system string
	fs.StringVar(&system, "system", "", "target system (see: conferr list)")
	fs.StringVar(&system, "target", "", "alias for -system")
	plugin := fs.String("plugin", "typo", "error generator plugin (see: conferr list)")
	seed := fs.Int64("seed", conferr.DefaultSeed, "faultload seed")
	perModel := fs.Int("per-model", 0, "typo scenarios per submodel (0 = all)")
	perDirective := fs.Int("per-directive", 0, "typo scenarios per directive (0 = off)")
	perClass := fs.Int("per-class", 0, "structural/variation scenarios per class (0 = all)")
	rounds := fs.Int("rounds", 0, "replay the faultload N times with round-prefixed IDs (scale harness)")
	sample := fs.Int("sample", 0, "reservoir-sample N scenarios (0 = off)")
	limit := fs.Int("limit", 0, "cap the faultload, lazily (0 = off)")
	port := fs.Int("port", 24100, "primary target port the faultload embeds; the default matches matrix cell 0 (-base-port)")
	lifecycleS := fs.String("lifecycle", "cold", "worker SUT lifecycle: cold, reload or validate")
	memnet := fs.Bool("memnet", false, "workers serve SUTs over the in-process transport")
	keepGoing := fs.Bool("keep-going", false, "per experiment: record infrastructure errors and contained panics instead of failing the shard")
	noDuration := fs.Bool("no-duration", false, "zero duration_ns in merged records, making equivalent runs byte-comparable")
	tally := fs.Bool("tally", false, "summary-only mode: workers send one tally each, no record stream")
	out := fs.String("out", "", "merged profile path (.cprof = compact binary frames, else JSONL)")
	checkpoint := fs.String("checkpoint", "", "checkpoint file enabling resume (default <out>.ckpt when -out is set)")
	resume := fs.Bool("resume", false, "resume from the checkpoint, completing only the missing sequence range")
	stall := fs.Duration("stall-timeout", 15*time.Second, "reassign a shard when its worker sends no frame for this long")
	dialTO := fs.Duration("dial-timeout", 5*time.Second, "worker connection timeout")
	retries := fs.Int("retries", 5, "per-shard attempt cap (dial failures retire the endpoint instead)")
	expTO := fs.Duration("experiment-timeout", 0, "per-experiment watchdog deadline workers inherit; expiry records an infrastructure error (0 = off)")
	phaseTO := fs.Duration("phase-timeout", 0, "per-SUT-phase watchdog deadline workers inherit (start, reload, probe, stop; 0 = off)")
	fsync := fs.Bool("fsync", false, "fsync the merged output at every checkpoint flush so -resume survives host crashes, not just process kills")
	quiet := fs.Bool("quiet", false, "suppress scheduling diagnostics")
	_ = fs.Parse(args)

	endpoints := splitNames(*workersCSV)
	if len(endpoints) == 0 {
		return errors.New("dist: -workers host:port,... is required")
	}
	// Fail bad names here, not as N identical worker errors later.
	if _, err := conferr.LookupTarget(system); err != nil {
		return err
	}
	if _, err := conferr.LookupGenerator(*plugin); err != nil {
		return err
	}
	if _, err := conferr.ParseLifecycle(*lifecycleS); err != nil {
		return err
	}
	if *tally && *out != "" {
		return errors.New("dist: -tally sends no records; drop -out or -tally")
	}

	cp := *checkpoint
	if cp == "" && *out != "" {
		cp = *out + ".ckpt"
	}
	nshards := *shards
	if nshards <= 0 {
		nshards = len(endpoints)
	}
	coord := &dist.Coordinator{
		Workers: endpoints,
		Shards:  nshards,
		Spec: dist.CampaignSpec{
			System: system, Plugin: *plugin, Seed: *seed,
			PerModel: *perModel, PerDirective: *perDirective, PerClass: *perClass,
			Rounds: *rounds, Sample: *sample, Limit: *limit,
			Port: *port, Lifecycle: *lifecycleS, Memnet: *memnet,
			KeepGoing: *keepGoing, NoDuration: *noDuration, TallyOnly: *tally,
		},
		OutPath:           *out,
		CheckpointPath:    cp,
		Resume:            *resume,
		DialTimeout:       *dialTO,
		StallTimeout:      *stall,
		Retry:             dist.RetryPolicy{MaxAttempts: *retries},
		ExperimentTimeout: *expTO,
		PhaseTimeout:      *phaseTO,
		SyncOutput:        *fsync,
	}
	if strings.HasSuffix(*out, ".cprof") {
		// Compact output: the merger's rendered JSONL lines are re-parsed
		// into cprof frames by a LineWriter. The factory reconciles the
		// file against the checkpoint front by walking frames, and every
		// checkpoint flushes the writer first, so each persisted front is
		// a frame boundary; raising CheckpointEvery to one frame of
		// records keeps frames full-size instead of checkpoint-size.
		outPath := *out
		coord.OutPath = ""
		coord.CheckpointEvery = cprof.DefaultFrameRecords
		coord.OutFactory = func(startSeq int) (io.Writer, func() error, func(bool) error, error) {
			cf, err := cprof.OpenFileAt(outPath, startSeq)
			if err != nil {
				return nil, nil, nil, err
			}
			flush := cf.Flush
			if *fsync {
				// Checkpointed fronts must not outlive the records backing
				// them: sync the frames to disk before the front is persisted.
				flush = cf.Sync
			}
			return cf.W.LineWriter(), flush, cf.Close, nil
		}
	}
	if !*quiet {
		coord.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	res, err := coord.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("system=%s generator=%s workers=%d shards=%d records=%d retries=%d duplicates=%d\n",
		system, *plugin, len(endpoints), coord.Shards, res.Records, res.Retries, res.Duplicates)
	if res.StartSeq > 0 {
		fmt.Printf("resumed from sequence %d (completed %d missing records)\n", res.StartSeq, res.Records-res.StartSeq)
	}
	sum := res.Summary
	sum.System = system + "/" + *plugin
	fmt.Print(profile.FormatTable1(sum))
	if *out != "" {
		fmt.Println("merged profile written to", *out)
	}
	return nil
}
