package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"conferr"
	"conferr/internal/profile"
	"conferr/internal/profile/cprof"
)

// cmdReport folds a profile file — JSONL or cprof, sniffed by content —
// into the paper's report shapes without materializing it: Table 1
// outcome summaries, per-class Tables 2/3, Figure 3 detection bands,
// and per-campaign resilience scorecards. With -diff it compares two
// campaigns instead, and -fail-regress turns the comparison into a CI
// resilience regression gate.
func cmdReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	diff := fs.Bool("diff", false, "compare two profiles: report -diff BEFORE AFTER")
	failRegress := fs.Float64("fail-regress", 0, "with -diff: fail when any campaign or class detection rate drops by more than this many percentage points (0 = report only)")
	bandKey := fs.String("band-key", "directive", "Figure 3 banding key: directive, class or none")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	key, err := bandKeyFunc(*bandKey)
	if err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return errors.New("report -diff needs exactly two profile files: BEFORE AFTER")
		}
		before, err := loadStats(fs.Arg(0), key)
		if err != nil {
			return err
		}
		after, err := loadStats(fs.Arg(1), key)
		if err != nil {
			return err
		}
		d := profile.DiffStats(before, after)
		fmt.Printf("resilience diff: %s -> %s\n", fs.Arg(0), fs.Arg(1))
		fmt.Print(d.FormatDiff())
		if *failRegress > 0 && d.MaxRegressionPP() > *failRegress {
			return fmt.Errorf("detection rate regressed by %.1fpp (gate: %.1fpp)",
				d.MaxRegressionPP(), *failRegress)
		}
		return nil
	}
	if fs.NArg() != 1 {
		return errors.New("report needs exactly one profile file (or - for stdin)")
	}
	start := time.Now()
	stats, err := loadStats(fs.Arg(0), key)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Print(stats.FormatReport())
	if n := stats.TotalRecords(); n > 0 && elapsed > 0 {
		fmt.Fprintf(os.Stderr, "conferr: folded %d records in %s (%.0f records/s)\n",
			n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	}
	return nil
}

// bandKeyFunc resolves the -band-key flag.
func bandKeyFunc(name string) (func(profile.Record) string, error) {
	switch name {
	case "directive":
		return func(r profile.Record) string { return conferr.TypoDirectiveKey(r.ScenarioID) }, nil
	case "class":
		return func(r profile.Record) string { return r.Class }, nil
	case "none", "":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -band-key %q (directive, class or none)", name)
	}
}

// loadStats folds one profile file into a StreamStats.
func loadStats(path string, key func(profile.Record) string) (*profile.StreamStats, error) {
	stats := profile.NewStreamStats(key)
	if err := cprof.ScanPath(path, stats.Add); err != nil {
		return nil, err
	}
	return stats, nil
}

// cmdConvert translates a profile file between the JSONL and cprof
// formats, losslessly in both directions. The input format is sniffed
// by content; the output format follows the destination extension
// (.cprof = compact frames, anything else = canonical JSONL, "-" =
// JSONL on stdout). cprof files replay in canonical sequence order, so
// cprof→JSONL of an ordered campaign is byte-identical to the stream
// the campaign would have written directly. Stdin is read in file
// order, and a record whose sequence runs backwards fails the
// conversion.
func cmdConvert(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	noDuration := fs.Bool("no-duration", false, "zero the duration field during conversion, making equivalent runs byte-comparable")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("convert needs exactly two arguments: IN OUT (IN may be - for stdin, OUT may be - for JSONL on stdout)")
	}
	in, out := fs.Arg(0), fs.Arg(1)
	// Creating OUT truncates it, so refuse before that when OUT is IN.
	if si, err := os.Stat(in); err == nil && in != "-" {
		if so, err := os.Stat(out); err == nil && os.SameFile(si, so) {
			return fmt.Errorf("convert: %s and %s are the same file", in, out)
		}
	}

	// Pick the scan: cprof inputs replay in canonical sequence order,
	// JSONL inputs in file order (already canonical for ordered streams).
	isC, err := cprof.IsCprofPath(in)
	if err != nil {
		return err
	}
	scan := func(fn func(profile.JSONLEntry) error) error { return cprof.ScanPath(in, fn) }
	if isC {
		scan = func(fn func(profile.JSONLEntry) error) error { return cprof.ScanFileSeqOrdered(in, fn) }
	}
	w, err := cprof.OpenPath(out)
	if err != nil {
		return err
	}
	// A campaign's sequence must not run backwards in the output. Read
	// from stdin, a cprof replays in file order, which for one written
	// through the sharded bypass is stride order, not sequence order.
	// Records of one campaign come in runs, so the map is consulted only
	// when the campaign changes.
	type campaign struct{ system, generator string }
	last := make(map[campaign]int)
	var cur campaign
	prev := 0
	records := 0
	err = scan(func(e profile.JSONLEntry) error {
		if e.System != cur.system || e.Generator != cur.generator {
			last[cur] = prev
			cur = campaign{e.System, e.Generator}
			prev = last[cur]
		}
		if e.Seq < prev {
			return fmt.Errorf("convert: %s/%s seq %d follows seq %d: %s is not in sequence order (a sharded cprof is replayed in sequence order only from a file: pass its path, not stdin)",
				e.System, e.Generator, e.Seq, prev, in)
		}
		prev = e.Seq
		records++
		if *noDuration {
			e.Record.Duration = 0
		}
		return w.WriteEntry(e)
	})
	if cerr := w.Close(err == nil); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if out == "-" {
		fmt.Fprintf(os.Stderr, "conferr: converted %d records from %s\n", records, in)
		return nil
	}
	fmt.Printf("converted %d records: %s -> %s\n", records, in, out)
	return nil
}
