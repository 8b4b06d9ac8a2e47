package conferr

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// Ports used by this file; distinct from every other fixed port in the
// repo so packages can run their tests concurrently.
const (
	runnerTestMySQLPort    = 23910
	runnerTestPostgresPort = 23911
	runnerTestApachePort   = 23912
)

// canonicalProfile renders everything of a profile that must be identical
// across worker counts: identity plus, per record in order, the scenario
// ID, class, outcome and detail (durations legitimately vary run to run).
func canonicalProfile(p *Profile) string {
	var b strings.Builder
	b.WriteString(p.System + "/" + p.Generator + "\n")
	for _, r := range p.Records {
		b.WriteString(r.ScenarioID + "|" + r.Class + "|" + r.Outcome.String() + "|" + r.Detail + "\n")
	}
	return b.String()
}

// TestRunnerParallelDeterminism is the headline contract of the redesign,
// exercised against the real simulators: an 8-worker MySQL typo campaign
// — whose faultload includes typos in the port digits, the hard case for
// per-worker SUT instances — must produce a byte-identical, scenario-
// ordered profile to the 1-worker run. Run under -race this also proves
// the whole facade fan-out (worker host leases included) is data-race
// free.
func TestRunnerParallelDeterminism(t *testing.T) {
	// Generators hold internal RNG state consumed during generation, so
	// each run gets a fresh instance; the seed makes them identical.
	cases := []struct {
		name    string
		factory TargetFactory
		gen     func() Generator
		port    int
	}{
		{"mysql-typo", MySQLTargetAt,
			func() Generator {
				return TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 40})
			}, runnerTestMySQLPort},
		{"postgres-value-typo", PostgresTargetAt,
			func() Generator {
				return TypoGenerator(TypoOptions{Seed: DefaultSeed, ValuesOnly: true, PerDirective: 10})
			}, runnerTestPostgresPort},
		{"apache-structural", ApacheTargetAt,
			func() Generator {
				return StructuralGenerator(StructuralOptions{Seed: DefaultSeed, Sections: true, PerClass: 15})
			}, runnerTestApachePort},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) string {
				r := &Runner{Factory: tc.factory, Generator: tc.gen(), Port: tc.port}
				p, err := r.Run(context.Background(), WithParallelism(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(p.Records) == 0 {
					t.Fatalf("workers=%d: empty profile", workers)
				}
				return canonicalProfile(p)
			}
			seq := run(1)
			par := run(8)
			if seq != par {
				t.Errorf("8-worker profile diverged from sequential:\n%s", firstDiff(seq, par))
			}
		})
	}
}

// firstDiff locates the first differing line of two renderings, keeping
// failure output readable.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  seq: %s\n  par: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("profiles differ in length: %d vs %d lines", len(al), len(bl))
}

// TestRunnerSummaryStableAcrossWorkerCounts pins the acceptance criterion
// at the API level: detection counts must not move with the worker count.
func TestRunnerSummaryStableAcrossWorkerCounts(t *testing.T) {
	var base Summary
	for i, workers := range []int{1, 2, 4, 8} {
		r := &Runner{
			Factory:   MySQLTargetAt,
			Generator: TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 25}),
			Port:      runnerTestMySQLPort,
		}
		p, err := r.Run(context.Background(), WithParallelism(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		s := p.Summarize()
		if i == 0 {
			base = s
			continue
		}
		if s != base {
			t.Errorf("workers=%d: summary %+v != workers=1 summary %+v", workers, s, base)
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Every worker's functional probes count into one tally; the 5th
	// probe call cancels the run.
	var probes atomic.Int32
	factory := func(port int) (*SystemTarget, error) {
		st, err := PostgresTargetAt(port)
		if err != nil {
			return nil, err
		}
		tests := slices.Clone(st.Target.Tests)
		for i, tc := range tests {
			tests[i].Run = func() error {
				if probes.Add(1) == 5 {
					cancel()
				}
				return tc.Run()
			}
		}
		st.Target.Tests = tests
		return st, nil
	}
	r := &Runner{
		Factory:   factory,
		Generator: TypoGenerator(TypoOptions{Seed: 1}),
		Port:      runnerTestPostgresPort,
	}
	prof, err := r.Run(ctx, WithParallelism(4))
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The profile covers what completed; a full postgres typo faultload has
	// hundreds of scenarios, so a cancellation at record 5 must cut it short.
	if len(prof.Records) > 100 {
		t.Errorf("cancellation left %d records, expected a truncated profile", len(prof.Records))
	}
}

func TestLookupTargetErrors(t *testing.T) {
	if _, err := LookupTarget("nope"); err == nil || !strings.Contains(err.Error(), "available:") {
		t.Errorf("err = %v, want unknown-system error listing alternatives", err)
	}
	if _, err := LookupTarget(""); err == nil {
		t.Error("empty target name accepted")
	}
	if _, err := LookupGenerator("nope"); err == nil || !strings.Contains(err.Error(), "available:") {
		t.Errorf("err = %v, want unknown-plugin error listing alternatives", err)
	}
}

func TestRegistryBuiltins(t *testing.T) {
	for _, want := range []string{"mysql", "mysql-full", "mysql-strict", "mysql-shared",
		"mysql-shared-tools", "postgres", "postgres-full", "apache", "bind", "djbdns"} {
		if _, err := LookupTarget(want); err != nil {
			t.Errorf("LookupTarget(%q): %v", want, err)
		}
	}
	for _, want := range []string{"typo", "structural", "variations", "semantic"} {
		if _, err := LookupGenerator(want); err != nil {
			t.Errorf("LookupGenerator(%q): %v", want, err)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterTarget did not panic")
		}
	}()
	RegisterTarget("mysql", MySQLTargetAt)
}

func TestRegisterCustomTarget(t *testing.T) {
	RegisterTarget("mysql-custom-for-test", MySQLStrictTargetAt)
	f, err := LookupTarget("mysql-custom-for-test")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := f(0)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.System.Name() == "" {
		t.Error("custom target has no system name")
	}
	found := false
	for _, name := range RegisteredTargets() {
		if name == "mysql-custom-for-test" {
			found = true
		}
	}
	if !found {
		t.Error("custom target missing from RegisteredTargets")
	}
}

func TestNewRunnerForWrongPairing(t *testing.T) {
	if _, err := NewRunnerFor("mysql", "semantic", GeneratorOptions{}); err == nil ||
		!strings.Contains(err.Error(), "bind or djbdns") {
		t.Errorf("err = %v, want semantic pairing error", err)
	}
	if _, err := NewRunnerFor("nope", "typo", GeneratorOptions{}); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := NewRunnerFor("mysql", "nope", GeneratorOptions{}); err == nil {
		t.Error("unknown plugin accepted")
	}
}

func TestNewRunnerForSemanticCampaign(t *testing.T) {
	// The semantic generator is stateless, so one runner can serve both
	// runs; DNS targets bind their own per-instance ports.
	r, err := NewRunnerFor("djbdns", "semantic", GeneratorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	par, err := r.Run(context.Background(), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if canonicalProfile(seq) != canonicalProfile(par) {
		t.Error("semantic campaign diverged across worker counts")
	}
}
