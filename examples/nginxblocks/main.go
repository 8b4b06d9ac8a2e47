// nginxblocks profiles the simulated nginx — the first target whose
// configuration nests blocks to arbitrary depth (http > server >
// location) — and contrasts it with redisd, whose flat redis.conf rides
// the existing kv codec: the same error models drive both, swapping only
// the codec and the SUT adapter (the paper's §3.2 portability claim).
//
// Structural faults hit nginx's context checks ("listen" directive is
// not allowed here) and its brace/semicolon syntax; typos corrupt
// directive names ("unknown directive") or slip into values where only
// the vhost and location functional tests notice.
//
//	go run ./examples/nginxblocks [-seed N] [-workers N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"conferr"
)

// port is the first of three fixed primary ports: the typo faultload
// mutates the port's digits, so an allocated port would vary the output.
const port = 12080

func main() {
	seed := flag.Int64("seed", conferr.DefaultSeed, "faultload seed")
	workers := flag.Int("workers", 4, "parallel campaign workers (0 = GOMAXPROCS)")
	flag.Parse()
	if err := run(*seed, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "nginxblocks:", err)
		os.Exit(1)
	}
}

func run(seed int64, workers int) error {
	ctx := context.Background()

	// Part 1: structural faults against the nested-block configuration.
	// Misplacing a directive across block boundaries trips nginx's
	// context table; omitting a whole block (events, a location) is the
	// interesting split — events is fatal, a location merely reroutes.
	structural, err := conferr.NewRunnerFor("nginx", "structural",
		conferr.GeneratorOptions{Seed: seed, PerClass: 25})
	if err != nil {
		return err
	}
	structural.Port = port
	prof, err := structural.Run(ctx, conferr.WithParallelism(workers), conferr.WithBaselineCheck())
	if err != nil {
		return err
	}
	fmt.Println("Structural faults against nginx (nested blocks):")
	fmt.Print(conferr.DetectionByClass(prof))
	fmt.Println()

	// Part 2: typos against nginx directive names and values.
	typos, err := conferr.NewRunnerFor("nginx", "typo",
		conferr.GeneratorOptions{Seed: seed, PerModel: 15})
	if err != nil {
		return err
	}
	typos.Port = port + 1
	tprof, err := typos.Run(ctx, conferr.WithParallelism(workers))
	if err != nil {
		return err
	}
	fmt.Println("Typos against nginx:")
	fmt.Print(conferr.DetectionByClass(tprof))
	fmt.Println()

	// Part 3: the same typo model against redisd — a brand-new system
	// profiled with zero new format code (redis.conf rides the kv codec).
	redis, err := conferr.NewRunnerFor("redisd", "typo",
		conferr.GeneratorOptions{Seed: seed, PerModel: 15})
	if err != nil {
		return err
	}
	redis.Port = port + 2
	rprof, err := redis.Run(ctx, conferr.WithParallelism(workers), conferr.WithBaselineCheck())
	if err != nil {
		return err
	}
	fmt.Println("The same typo model against redisd (kv codec reused):")
	fmt.Print(conferr.FormatTable1(tprof.Summarize(), rprof.Summarize()))
	return nil
}
