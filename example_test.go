package conferr_test

import (
	"context"
	"fmt"

	"conferr"
)

// The smallest campaign: spelling mistakes against the simulated
// PostgreSQL, resolved from the registry and fanned out over four
// workers. The profile is identical to a sequential run's.
func Example() {
	runner, err := conferr.NewRunnerFor("postgres", "typo",
		conferr.GeneratorOptions{Seed: 1, PerModel: 2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	prof, err := runner.Run(context.Background(), conferr.WithParallelism(4))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("records:", len(prof.Records) > 0)
	// Output:
	// records: true
}

// The explicit Campaign form is still available for callers that build
// their own targets; Run is the sequential shorthand for RunContext.
func ExampleCampaign() {
	tgt, err := conferr.PostgresTargetAt(0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	campaign := &conferr.Campaign{
		Target:    tgt.Target,
		Generator: conferr.TypoGenerator(conferr.TypoOptions{Seed: 1, PerModel: 2}),
	}
	prof, err := campaign.RunContext(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("records:", len(prof.Records) > 0)
	// Output:
	// records: true
}

// Targets and plugins are registered by name; unknown names fail with the
// available alternatives.
func ExampleLookupTarget() {
	factory, err := conferr.LookupTarget("mysql")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	tgt, err := factory(0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(tgt.System.Name())
	// Output:
	// mysql-sim
}

// Restricting typos to directive names only (the §5.2 faultload slice all
// systems detect well).
func ExampleTypoGenerator() {
	gen := conferr.TypoGenerator(conferr.TypoOptions{
		Seed:      7,
		NamesOnly: true,
		PerModel:  5,
	})
	fmt.Println(gen.Name(), gen.View().Name())
	// Output:
	// typo word
}

// RFC-1912 semantic faults target the record view; the same classes apply
// to BIND and djbdns.
func ExampleSemanticDNSGenerator() {
	gen := conferr.SemanticDNSGenerator(conferr.DjbdnsRecordView(), nil)
	fmt.Println(gen.Name(), gen.View().Name())
	// Output:
	// semantic-dns tinydns-records
}

// Table 3 reproduces exactly, including the N/A cells caused by
// tinydns's combined "=" directive.
func ExampleRunTable3Ctx() {
	res, err := conferr.RunTable3Ctx(context.Background(), false, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Cells["semantic/missing-ptr"]["djbdns"])
	fmt.Println(res.Cells["semantic/mx-to-cname"]["BIND"])
	// Output:
	// N/A
	// found
}

// Profiles aggregate into the paper's Table 1 shape.
func ExampleFormatTable1() {
	s := conferr.Summary{System: "demo", Injected: 10, AtStartup: 7, ByTest: 1, Ignored: 2}
	fmt.Print(conferr.FormatTable1(s))
	// Output:
	//                                         demo
	// # of Injected Errors               10 (100%)
	// Detected by system at startup         7 (70%)
	// Detected by functional tests         1 (10%)
	// Ignored                              2 (20%)
}
