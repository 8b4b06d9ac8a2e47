// Quickstart: the smallest complete ConfErr campaign, run in parallel.
//
// It injects keyboard-realistic spelling mistakes into the simulated
// PostgreSQL server's configuration, runs the database functional tests
// after each injection, and prints the resulting resilience profile — the
// paper's §3.1 loop end to end. The target and plugin are resolved from
// the registry by name, and the faultload is fanned out over four workers
// (each with its own SUT instance); the profile is identical to a
// sequential run's, just produced faster.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"conferr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Resolve the target and the error generator from the registry:
	// the simulated Postgres with its config format and functional test,
	// and the typo plugin with all five §2.1 submodels, capped at 8
	// scenarios per submodel for a quick run.
	runner, err := conferr.NewRunnerFor("postgres", "typo",
		conferr.GeneratorOptions{Seed: 42, PerModel: 8})
	if err != nil {
		return err
	}
	// Pin the primary port: the typo faultload mutates the port's digits,
	// so an allocated port would change the profile from run to run.
	runner.Port = 12432

	// 2. Run every scenario over 4 workers. WithBaselineCheck first
	// verifies the unmutated configuration starts and passes the tests —
	// a campaign is meaningless without that invariant.
	prof, err := runner.Run(context.Background(),
		conferr.WithParallelism(4),
		conferr.WithBaselineCheck())
	if err != nil {
		return err
	}

	fmt.Printf("ConfErr resilience profile — system=%s generator=%s\n\n",
		prof.System, prof.Generator)
	fmt.Print(prof.FormatRecords())
	fmt.Println()
	fmt.Print(conferr.FormatTable1(prof.Summarize()))
	fmt.Printf("\nOverall detection rate: %.0f%%\n", prof.DetectionRate()*100)
	return nil
}
