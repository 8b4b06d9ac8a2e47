// Command bench is conferr's benchmark. It drives the campaign engine,
// the distributed coordinator and the profile tools through their public
// APIs on four workloads, measures what a user of each sees, checks every
// output for correctness, and with -trace 1 splits the time by layer
// with span wrappers that live only in this package. run.sh builds and
// runs it from the repository root:
//
//	bench                          every workload, each in its own child process
//	bench -workload W -seed N -seconds S -trace 0|1
//	                               one workload in this process; the last
//	                               line of standard output is the JSON result
//	bench -out F                   also append every result to F
//	bench -compare A B             compare two sets of result files
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	// Mirror cmd/conferr: batch campaigns hold bounded memory, so the
	// default GC cadence mostly re-collects per-experiment garbage.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout))
}

// minIters is the fewest iterations a measurement takes, however short
// -seconds is, so every median has at least three samples.
const minIters = 3

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 12, "input seed: generator seed and primary port")
	seconds := fs.Float64("seconds", 10, "how long one measurement runs")
	trace := fs.Int("trace", 0, "1: measure untraced and traced for half the time each, and report the per-layer split")
	out := fs.String("out", "", "append every result as a JSON line to this file, the input of -compare")
	compare := fs.Bool("compare", false, "compare two sets of result files: -compare A B, each a comma-separated list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two sets of result files")
			return 2
		}
		return compareSets(stdout, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *name == "" {
		return runAll(ctx, stdout, *seed, *seconds, *trace, *out)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// A wedged run must still end: well inside the 180 s a run may take.
	limit := time.Duration(*seconds*2)*time.Second + 120*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v\n", w.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	dir, err := os.MkdirTemp("", "conferr-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, scale: 1, dir: dir}
	rep, err := runWorkload(ctx, w, e, *seconds, *trace == 1, minIters)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	if rep.tracer != nil {
		path := filepath.Join(os.TempDir(), fmt.Sprintf("conferr-bench-spans-%s-%d.jsonl", w.name, *seed))
		if n, err := rep.tracer.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
		} else {
			fmt.Fprintf(os.Stderr, "bench: %d sampled spans written to %s\n", n, path)
		}
		printMetrics(bw, w.name, rep.layers, nil)
		fmt.Fprintf(bw, "# %s: layer busy %.4fs + core.self_s %.4fs = slots x wall %.4fs\n",
			w.name, rep.tracer.leafBusy().Seconds(), rep.layers["core.self_s"].Value, rep.slotSec)
	} else {
		printMetrics(bw, w.name, rep.result.Metrics, endToEndOrder)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: incorrect: %s\n", w.name, p)
	}
	cells, _ := json.Marshal(map[string]any{"workload": w.name, "seed": *seed, "cells": rep.cells})
	fmt.Fprintf(os.Stderr, "bench: cells %s\n", cells)
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	if !rep.result.Correct {
		return 1
	}
	return 0
}

// result is the JSON object the last line of a run carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload run: the result plus what the text output and
// the tests need.
type report struct {
	result   result
	endToEnd map[string]metric
	layers   map[string]metric // nil unless traced
	tracer   *tracer
	slotSec  float64
	problems []string
	cells    map[string]cellOut
}

// runWorkload measures w untraced for seconds (half of it when traced,
// followed by the traced half), runs the reference, and applies the
// correctness gate to everything it produced.
func runWorkload(ctx context.Context, w *workload, e *env, seconds float64, traced bool, minIters int) (*report, error) {
	if traced {
		seconds /= 2
	}
	var v verdict
	base, err := measure(ctx, w, e, seconds, minIters)
	if err != nil {
		v.failed++
		v.fail("%v", err)
	}
	if len(base) < 2 { // not even one iteration after the warm-up
		return nil, err
	}
	ref, err := w.reference(ctx, e)
	if err != nil {
		v.fail("%v", err)
	}
	check(w, e, base, ref, &v)
	rep := &report{cells: base[0].cells}
	if rep.endToEnd, err = endToEnd(base[1:]); err != nil {
		return nil, err
	}
	rep.result.Metrics = rep.endToEnd
	if traced {
		te := *e
		te.tr = newTracer()
		its, err := measure(ctx, w, &te, seconds, minIters)
		if err != nil {
			v.failed++
			v.fail("traced: %v", err)
		}
		if len(its) == 0 {
			return nil, err
		}
		check(w, &te, its, ref, &v)
		if err := sameCells(base[0].cells, its[0].cells); err != nil {
			v.fail("traced output differs from untraced: %v", err)
		}
		rep.tracer = te.tr
		// The tracer's spans cover the traced warm-up too, so the split
		// does: its layers and its slot time then still add up.
		rep.layers = perLayer(te.tr, its, base[1:])
		rep.result.Metrics = rep.layers
		for _, it := range its {
			rep.slotSec += it.slotSec
		}
	}
	rep.result.Correct = len(v.problems) == 0
	rep.result.Attempted = v.attempted
	rep.result.Failed = v.failed
	rep.problems = v.problems
	return rep, nil
}

// resultLine is one line of a -out file.
type resultLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// runAll runs every workload in its own child process — so peak RSS, GC
// state and the engine's pooled scratch never carry over — and prints
// their metrics.
func runAll(ctx context.Context, stdout io.Writer, seed int64, seconds float64, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var outFile *os.File
	if out != "" {
		if outFile, err = os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer outFile.Close()
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		text, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(text), "\n"), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: no result (%v)\n", w.name, errors.Join(err, jerr))
			status = 1
			continue
		}
		fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
		if err != nil || !res.Correct {
			status = 1
		}
		if outFile != nil {
			line, _ := json.Marshal(resultLine{Workload: w.name, Seed: seed, Trace: trace, Result: res})
			if _, err := outFile.Write(append(line, '\n')); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	return status
}
