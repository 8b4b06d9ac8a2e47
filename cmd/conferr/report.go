package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
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
	workers := fs.Int("workers", 0, "parallel frame-decode workers for indexed cprof files (0 = GOMAXPROCS; JSONL always scans sequentially)")
	_ = fs.Parse(args)

	key, err := bandKeyFunc(*bandKey)
	if err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return errors.New("report -diff needs exactly two profile files: BEFORE AFTER")
		}
		before, err := loadStats(fs.Arg(0), key, *workers)
		if err != nil {
			return err
		}
		after, err := loadStats(fs.Arg(1), key, *workers)
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
	stats, err := loadStats(fs.Arg(0), key, *workers)
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

// loadStats folds one profile file into a StreamStats. Indexed cprof
// files decode their frames across workers goroutines and merge the
// per-worker folds; JSONL (and stdin) streams sequentially.
func loadStats(path string, key func(profile.Record) string, workers int) (*profile.StreamStats, error) {
	if path != "-" {
		isC, err := cprof.IsCprofPath(path)
		if err != nil {
			return nil, err
		}
		if isC && workers != 1 {
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			folds := make([]*profile.StreamStats, workers)
			for i := range folds {
				folds[i] = profile.NewStreamStats(key)
			}
			err := cprof.FoldFile(path, workers, func(w int, e profile.JSONLEntry) error {
				return folds[w].Add(e)
			})
			if err != nil {
				return nil, err
			}
			stats := folds[0]
			for _, o := range folds[1:] {
				stats.Merge(o)
			}
			return stats, nil
		}
	}
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
// JSONL on stdout). cprof inputs replay in canonical sequence order, so
// cprof→JSONL of an ordered campaign is byte-identical to the stream
// the campaign would have written directly.
func cmdConvert(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	noDuration := fs.Bool("no-duration", false, "zero the duration field during conversion, making equivalent runs byte-comparable")
	_ = fs.Parse(args)
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
	strip := func(e profile.JSONLEntry) profile.JSONLEntry {
		if *noDuration {
			e.Record.Duration = 0
		}
		return e
	}

	records := 0
	if strings.HasSuffix(out, ".cprof") {
		cf, err := cprof.Create(out)
		if err != nil {
			return err
		}
		err = scan(func(e profile.JSONLEntry) error {
			records++
			return cf.W.WriteEntry(strip(e))
		})
		if cerr := cf.Close(err == nil); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	} else {
		var w io.Writer = os.Stdout
		if out != "-" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		bw := bufio.NewWriterSize(w, 1<<20)
		var buf []byte
		err = scan(func(e profile.JSONLEntry) error {
			records++
			e = strip(e)
			buf = profile.AppendJSONLRecord(buf[:0], e.System, e.Generator, e.Seq, e.Record)
			_, werr := bw.Write(buf)
			return werr
		})
		if err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if out == "-" {
			fmt.Fprintf(os.Stderr, "conferr: converted %d records from %s\n", records, in)
			return nil
		}
	}
	fmt.Printf("converted %d records: %s -> %s\n", records, in, out)
	return nil
}
