// webstructural runs the structural-errors plugin (§4.2/§5.3) against the
// simulated Apache httpd: omissions, copy-paste duplications, and
// directives moved into the wrong section — plus the Table 2
// structure-preserving variations that an ideal server should accept.
// Both campaigns resolve their target from the registry and fan out over
// parallel workers.
//
//	go run ./examples/webstructural [-seed N] [-workers N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"conferr"
)

func main() {
	seed := flag.Int64("seed", conferr.DefaultSeed, "faultload seed")
	workers := flag.Int("workers", 4, "parallel campaign workers (0 = GOMAXPROCS)")
	flag.Parse()
	if err := run(*seed, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "webstructural:", err)
		os.Exit(1)
	}
}

func run(seed int64, workers int) error {
	ctx := context.Background()

	// Part 1: structural faults. Misplaced directives hit Apache's context
	// checks ("AllowOverride not allowed here"); harmless duplications are
	// silently absorbed; omissions mostly fall back to defaults — except
	// Listen, without which the server has no sockets.
	faults, err := conferr.NewRunnerFor("apache", "structural",
		conferr.GeneratorOptions{Seed: seed, PerClass: 20})
	if err != nil {
		return err
	}
	// Pin the primary ports: faults that reach the Listen line then act on
	// the same port in every run, not on whichever one was allocated.
	faults.Port = 12180
	prof, err := faults.Run(ctx, conferr.WithParallelism(workers))
	if err != nil {
		return err
	}
	fmt.Println("Structural faults against Apache:")
	fmt.Print(conferr.DetectionByClass(prof))
	fmt.Println()

	// Part 2: structure-preserving variations (Table 2 rows for Apache).
	variations, err := conferr.NewRunnerFor("apache", "variations",
		conferr.GeneratorOptions{Seed: seed, PerClass: 10})
	if err != nil {
		return err
	}
	variations.Port = 12181
	vprof, err := variations.Run(ctx, conferr.WithParallelism(workers))
	if err != nil {
		return err
	}
	fmt.Println("Structure-preserving variations against Apache")
	fmt.Println("(an ideal system accepts every one — 'detected' rows are rejections):")
	fmt.Print(conferr.DetectionByClass(vprof))
	return nil
}
