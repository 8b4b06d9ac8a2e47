package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"conferr"
	"conferr/internal/dist"
	"conferr/internal/profile"
)

// cmdDist runs one campaign distributed across sutd worker daemons: the
// coordinator ships each worker only a shard spec (generation is a pure
// function of seed and shard, so no scenario crosses the wire), retries
// failed or stalled shards on surviving workers, and merges the streams
// into a profile byte-identical to a single-process run. A killed
// coordinator resumes from the records its -out holds, completing only
// the missing sequence range.
func cmdDist(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	workersCSV := fs.String("workers", "", "comma-separated worker endpoints (host:port,... — start each with `sutd -serve host:port`)")
	shards := fs.Int("shards", 0, "shard count (0 = one per worker); shards are the unit of retry and rebalancing")
	var spec dist.CampaignSpec
	cellFlags(fs, &spec)
	fs.StringVar(&spec.System, "system", "", "target system (see: conferr list)")
	fs.StringVar(&spec.System, "target", "", "alias for -system")
	fs.StringVar(&spec.Plugin, "plugin", "typo", "error generator plugin (see: conferr list)")
	fs.IntVar(&spec.PerDirective, "per-directive", 0, "typo scenarios per directive (0 = off)")
	fs.IntVar(&spec.Port, "port", 24100, "primary target port the faultload embeds; the default matches matrix cell 0 (-base-port)")
	fs.BoolVar(&spec.KeepGoing, "keep-going", false, "per experiment: record infrastructure errors and contained panics instead of failing the shard")
	fs.BoolVar(&spec.TallyOnly, "tally", false, "summary-only mode: workers send one tally each, no record stream")
	out := fs.String("out", "", "merged profile path (.cprof = compact binary frames, else JSONL)")
	resume := fs.Bool("resume", false, "resume -out from the records it holds, completing only the missing sequence range")
	stall := fs.Duration("stall-timeout", 15*time.Second, "reassign a shard when its worker sends no frame for this long")
	dialTO := fs.Duration("dial-timeout", 5*time.Second, "worker connection timeout")
	retries := fs.Int("retries", 5, "per-shard attempt cap (dial failures retire the endpoint instead)")
	fsync := fs.Bool("fsync", false, "fsync the merged output at every flush (one per 4,096 records) so -resume survives host crashes, not just process kills")
	quiet := fs.Bool("quiet", false, "suppress scheduling diagnostics")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	endpoints := splitNames(*workersCSV)
	if len(endpoints) == 0 {
		return errors.New("dist: -workers host:port,... is required")
	}
	if *out == "-" {
		// The run's summary owns stdout, and a resumable output must be a
		// file.
		return errors.New("dist: -out - is not supported: name an output file")
	}
	// Build the cell every worker will build: a bad name or setting fails
	// here, not as N identical worker errors later.
	if _, err := conferr.DistCampaign(spec); err != nil {
		return err
	}

	nshards := *shards
	if nshards <= 0 {
		nshards = len(endpoints)
	}
	coord := &dist.Coordinator{
		Workers:      endpoints,
		Shards:       nshards,
		Spec:         spec,
		OutPath:      *out,
		Resume:       *resume,
		DialTimeout:  *dialTO,
		StallTimeout: *stall,
		Retry:        dist.RetryPolicy{MaxAttempts: *retries},
		SyncOutput:   *fsync,
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
		spec.System, spec.Plugin, len(endpoints), coord.Shards, res.Records, res.Retries, res.Duplicates)
	if res.StartSeq > 0 {
		fmt.Printf("resumed from sequence %d (completed %d missing records)\n", res.StartSeq, res.Records-res.StartSeq)
	}
	sum := res.Summary
	sum.System = spec.System + "/" + spec.Plugin
	fmt.Print(profile.FormatTable1(sum))
	if *out != "" {
		fmt.Println("merged profile written to", *out)
	}
	return nil
}
