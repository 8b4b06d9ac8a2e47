package conferr

import (
	"context"
	"strings"
	"testing"

	"conferr/internal/plugins/semantic"
	"conferr/internal/plugins/structural"
)

// TestBaselines verifies that every simulated target starts and passes its
// functional tests on its unmutated default configuration — the
// precondition for any campaign to be meaningful.
func TestBaselines(t *testing.T) {
	// Every registry entry, so a new target cannot merge with a broken
	// default configuration.
	for _, label := range RegisteredTargets() {
		t.Run(label, func(t *testing.T) {
			factory, err := LookupTarget(label)
			if err != nil {
				t.Fatal(err)
			}
			tgt, err := factory(0)
			if err != nil {
				t.Fatal(err)
			}
			c := &Campaign{Target: tgt.Target, Generator: LimitGenerator(TypoGenerator(TypoOptions{}), 0)}
			if _, err := c.RunContext(context.Background(), WithBaselineCheck()); err != nil {
				t.Fatalf("baseline: %v", err)
			}
		})
	}
}

// TestTable1Shape runs the §5.2 experiment and asserts the qualitative
// findings of the paper's Table 1:
//
//   - MySQL and Postgres detect most injected typos at startup, Apache
//     detects far fewer;
//   - MySQL's startup-detection share is at least Postgres's (case-
//     sensitive names catch case-alteration typos Postgres ignores);
//   - only Apache has a meaningful share of functional-test detections
//     (Listen port typos);
//   - Apache ignores the majority of injections.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	res, err := RunTable1Ctx(context.Background(), DefaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	my, pg, ap := res.Summaries["MySQL"], res.Summaries["Postgres"], res.Summaries["Apache"]
	t.Logf("\n%s", res.Format())

	rate := func(s Summary) float64 {
		if s.Injected == 0 {
			return 0
		}
		return float64(s.AtStartup) / float64(s.Injected)
	}
	if my.Injected < 200 || pg.Injected < 60 || ap.Injected < 90 {
		t.Errorf("injection counts too small: MySQL=%d Postgres=%d Apache=%d",
			my.Injected, pg.Injected, ap.Injected)
	}
	if rate(my) < 0.55 {
		t.Errorf("MySQL startup detection %.0f%%, want majority", rate(my)*100)
	}
	if rate(pg) < 0.5 {
		t.Errorf("Postgres startup detection %.0f%%, want majority", rate(pg)*100)
	}
	if rate(my) < rate(pg) {
		t.Errorf("MySQL (%.0f%%) should detect at least as much as Postgres (%.0f%%)",
			rate(my)*100, rate(pg)*100)
	}
	if rate(ap) > rate(pg)-0.1 {
		t.Errorf("Apache (%.0f%%) should detect far less than Postgres (%.0f%%)",
			rate(ap)*100, rate(pg)*100)
	}
	if ap.ByTest == 0 {
		t.Error("Apache should have functional-test detections (Listen port typos)")
	}
	if float64(ap.Ignored)/float64(ap.Injected) < 0.4 {
		t.Errorf("Apache should ignore a large share, got %d/%d", ap.Ignored, ap.Injected)
	}
}

// TestTable2EmptyCellIsNotSupported: a Table 2 cell reads Yes only when
// it ran variants and the system ignored them all; a cell with no
// variants reads n/a.
func TestTable2EmptyCellIsNotSupported(t *testing.T) {
	for _, c := range []struct {
		records, ignored int
		want             string
	}{{0, 0, SupportNA}, {10, 10, SupportYes}, {10, 9, SupportNo}} {
		cr := CampaignResult{Records: c.records, Summary: Summary{Ignored: c.ignored}}
		if got := table2Support(cr); got != c.want {
			t.Errorf("%d records, %d ignored: %s, want %s", c.records, c.ignored, got, c.want)
		}
	}
}

// TestTable2Shape asserts the paper's Table 2 cells.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	res, err := RunTable2Ctx(context.Background(), 1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	want := map[string]map[string]string{
		"MySQL": {
			structural.VariationSectionOrder:   SupportYes,
			structural.VariationDirectiveOrder: SupportYes,
			structural.VariationSpaces:         SupportYes,
			structural.VariationMixedCase:      SupportNo,
			structural.VariationTruncatedNames: SupportYes,
		},
		"Postgres": {
			structural.VariationSectionOrder:   SupportNA,
			structural.VariationDirectiveOrder: SupportYes,
			structural.VariationSpaces:         SupportYes,
			structural.VariationMixedCase:      SupportYes,
			structural.VariationTruncatedNames: SupportNo,
		},
		"Apache": {
			structural.VariationSectionOrder:   SupportNA,
			structural.VariationDirectiveOrder: SupportYes,
			structural.VariationSpaces:         SupportYes,
			structural.VariationMixedCase:      SupportYes,
			structural.VariationTruncatedNames: SupportNo,
		},
	}
	for sys, rows := range want {
		for class, cell := range rows {
			if got := res.Support[sys][class]; got != cell {
				t.Errorf("%s / %s = %q, want %q", sys, class, got, cell)
			}
		}
	}
	if got := res.SatisfiedPercent("MySQL"); got != 80 {
		t.Errorf("MySQL satisfied = %d%%, want 80%%", got)
	}
	if got := res.SatisfiedPercent("Postgres"); got != 75 {
		t.Errorf("Postgres satisfied = %d%%, want 75%%", got)
	}
	if got := res.SatisfiedPercent("Apache"); got != 75 {
		t.Errorf("Apache satisfied = %d%%, want 75%%", got)
	}
}

// TestTable3Shape asserts the paper's Table 3 cells, including the N/A
// entries arising from tinydns's combined "=" directive.
func TestTable3Shape(t *testing.T) {
	res, err := RunTable3Ctx(context.Background(), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	want := map[string]map[string]string{
		semantic.ClassMissingPTR: {"BIND": NotFound, "djbdns": NotInjectable},
		semantic.ClassPTRToCNAME: {"BIND": NotFound, "djbdns": NotInjectable},
		semantic.ClassCNAMEDupNS: {"BIND": Found, "djbdns": NotFound},
		semantic.ClassMXToCNAME:  {"BIND": Found, "djbdns": NotFound},
	}
	for class, rows := range want {
		for sys, cell := range rows {
			if got := res.Cells[class][sys]; got != cell {
				t.Errorf("%s / %s = %q, want %q", class, sys, got, cell)
			}
		}
	}
}

// TestFigure3Shape asserts the paper's Figure 3 finding: Postgres detects
// more than 75% of value typos for a large share of its directives, while
// MySQL detects less than 25% for a large share of its.
func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	res, err := RunFigure3Ctx(context.Background(), 1, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	var pg, my Banding
	for _, b := range res.Bandings {
		switch b.System {
		case "Postgresql":
			pg = b
		case "MySQL":
			my = b
		}
	}
	if pg.Directives < 20 || my.Directives < 15 {
		t.Fatalf("too few directives measured: pg=%d my=%d", pg.Directives, my.Directives)
	}
	// Postgres: excellent is its biggest band and covers a large share.
	if pg.Share[Excellent] < 0.30 {
		t.Errorf("Postgres excellent share = %.0f%%, want >= 30%%", pg.Share[Excellent]*100)
	}
	// MySQL: poor covers a large share.
	if my.Share[Poor] < 0.30 {
		t.Errorf("MySQL poor share = %.0f%%, want >= 30%%", my.Share[Poor]*100)
	}
	// Cross-system dominance, the headline of §5.5.
	if pg.Share[Excellent] <= my.Share[Excellent] {
		t.Errorf("Postgres excellent (%.0f%%) should exceed MySQL's (%.0f%%)",
			pg.Share[Excellent]*100, my.Share[Excellent]*100)
	}
	if my.Share[Poor] <= pg.Share[Poor] {
		t.Errorf("MySQL poor (%.0f%%) should exceed Postgres's (%.0f%%)",
			my.Share[Poor]*100, pg.Share[Poor]*100)
	}
}

// TestPaperFindingsInProfiles spot-checks that the §5.2 flaw findings
// surface in actual campaign profiles.
func TestPaperFindingsInProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	// MySQL: there must be ignored value typos on numeric directives
	// (clamping/prefix-parse flaws).
	results, err := runCells(context.Background(), "table1", 1, table1Mixes[0].cells(7))
	if err != nil {
		t.Fatal(err)
	}
	ignoredValueTypos := 0
	for _, cr := range results {
		for _, rec := range cr.Profile.Records {
			if strings.HasPrefix(rec.Class, "typo/") && rec.Outcome == Ignored {
				ignoredValueTypos++
			}
		}
	}
	if ignoredValueTypos == 0 {
		t.Error("MySQL profile shows no ignored typos; the silent-acceptance flaws are not surfacing")
	}
}

// TestDetectionByClassRendering exercises the per-class ablation view.
func TestDetectionByClassRendering(t *testing.T) {
	tgt, err := PostgresTargetAt(0)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{
		Target:    tgt.Target,
		Generator: TypoGenerator(TypoOptions{Seed: 3, PerModel: 5}),
	}
	p, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := DetectionByClass(p)
	if !strings.Contains(out, "typo/") || !strings.Contains(out, "injected=") {
		t.Errorf("DetectionByClass output:\n%s", out)
	}
}

// TestStructuralCampaign runs the structural fault plugin end to end
// against Apache, whose context-restricted directives make misplacement
// detectable ("... not allowed here") while most omissions and
// duplications are silently absorbed.
func TestStructuralCampaign(t *testing.T) {
	tgt, err := ApacheTargetAt(0)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{
		Target:    tgt.Target,
		Generator: StructuralGenerator(StructuralOptions{Seed: 5, PerClass: 15, Sections: true}),
	}
	p, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	counts := p.Summarize()
	if counts.Ignored == 0 {
		t.Error("structural campaign: expected some ignored faults (harmless duplications)")
	}
	if counts.AtStartup == 0 {
		t.Error("structural campaign: expected some startup detections (misplaced directives)")
	}
}

// TestSemanticExtendedClasses runs the extended RFC-1912 classes.
func TestSemanticExtendedClasses(t *testing.T) {
	res, err := RunTable3Ctx(context.Background(), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != len(semantic.AllClasses()) {
		t.Errorf("classes = %d", len(res.Classes))
	}
	// The address-as-cname fault on djbdns mutates one half of a '='
	// directive — inexpressible.
	if got := res.Cells[semantic.ClassAddressInCNAME]["djbdns"]; got != NotInjectable {
		t.Errorf("address-as-cname on djbdns = %q, want N/A", got)
	}
	// On BIND it is expressible and refused (CNAME and other data ... or
	// MX/NS target checks), i.e. found.
	if got := res.Cells[semantic.ClassAddressInCNAME]["BIND"]; !strings.HasPrefix(got, Found) {
		t.Errorf("address-as-cname on BIND = %q, want found", got)
	}
}

// TestEditBenchmarkShape runs the §5.5 configuration-process benchmark
// and asserts its headline: Postgres detects more near-edit typos than
// MySQL.
func TestEditBenchmarkShape(t *testing.T) {
	res, err := RunEditBenchmarkCtx(context.Background(), DefaultSeed, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Format())
	pg, my := res.Rates["Postgres"], res.Rates["MySQL"]
	if pg <= my {
		t.Errorf("Postgres (%.0f%%) should detect more near-edit typos than MySQL (%.0f%%)",
			pg*100, my*100)
	}
	if pg < 0.4 {
		t.Errorf("Postgres near-edit detection %.0f%%, implausibly low", pg*100)
	}
	// The clean-edit control path: an edit without a typo must be accepted.
	tgt, err := PostgresTargetAt(0)
	if err != nil {
		t.Fatal(err)
	}
	gen := EditBenchmarkGenerator([]Edit{{Directive: "max_connections", NewValue: "123"}}, 1, 1)
	eg, ok := gen.(interface{ Name() string })
	if !ok || eg.Name() != "editsim" {
		t.Fatal("unexpected generator")
	}
	_ = tgt
}

// TestBorrowCampaign exercises the §2.2 rule-based "borrowing" error:
// Postgres directives inserted into MySQL's my.cnf. Most are unknown
// variables (detected); directives whose names both systems share (e.g.
// max_connections) slip through — the realistic hazard of transferring a
// mental model between systems.
func TestBorrowCampaign(t *testing.T) {
	donor, err := PostgresTargetAt(0)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := MySQLTargetAt(0)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := BorrowGenerator(donor, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{Target: tgt.Target, Generator: gen}
	prof, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	counts := prof.Summarize()
	if counts.AtStartup == 0 {
		t.Error("foreign directives should mostly be unknown variables")
	}
	if counts.Ignored == 0 {
		t.Error("shared directive names (e.g. max_connections, port) should slip through")
	}
	if counts.AtStartup <= counts.Ignored {
		t.Errorf("most borrowed directives should be detected: detected=%d ignored=%d",
			counts.AtStartup, counts.Ignored)
	}
}

// TestCampaignReplayDeterminism: two campaigns with the same seed produce
// identical profiles — the property the benchmark character of the tool
// depends on.
func TestCampaignReplayDeterminism(t *testing.T) {
	runOnce := func() *Profile {
		tgt, err := PostgresTargetAt(25499)
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{
			Target:    tgt.Target,
			Generator: TypoGenerator(TypoOptions{Seed: 21, PerModel: 10}),
		}
		p, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := runOnce(), runOnce()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.ScenarioID != rb.ScenarioID || ra.Outcome != rb.Outcome {
			t.Errorf("record %d differs: %s/%v vs %s/%v",
				i, ra.ScenarioID, ra.Outcome, rb.ScenarioID, rb.Outcome)
		}
	}
}

// TestStrictModeImprovement quantifies the resilience impact of a design
// change — the paper's "prompt feedback during development" use case:
// MySQL with the simple checks the profile suggests (strict mode) detects
// strictly more of the same faultload, with zero regressions.
func TestStrictModeImprovement(t *testing.T) {
	const port = 23399
	runWith := func(newTarget func(int) (*SystemTarget, error)) *Profile {
		tgt, err := newTarget(port)
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{
			Target:    tgt.Target,
			Generator: TypoGenerator(TypoOptions{Seed: 13, ValuesOnly: true, PerDirective: 10}),
		}
		p, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := runWith(MySQLTargetAt)
	after := runWith(MySQLStrictTargetAt)
	cmp := CompareProfiles(before, after)
	if len(cmp.OnlyBefore) != 0 || len(cmp.OnlyAfter) != 0 {
		t.Fatalf("faultload drift: onlyBefore=%d onlyAfter=%d", len(cmp.OnlyBefore), len(cmp.OnlyAfter))
	}
	if len(cmp.Regressed) != 0 {
		t.Errorf("strict mode regressed %d scenarios: %v", len(cmp.Regressed), cmp.Regressed)
	}
	if len(cmp.Improved) == 0 {
		t.Error("strict mode improved nothing; the checks are inert")
	}
	t.Logf("strict mode: %d improved, %d unchanged, %d regressed",
		len(cmp.Improved), cmp.Unchanged, len(cmp.Regressed))
}

// TestLatentSharedConfigErrors quantifies the §5.2 shared-file flaw: the
// same faultload over the shared my.cnf goes partly undetected unless the
// auxiliary tools actually run. The delta between the two campaigns is
// the latent-error exposure.
func TestLatentSharedConfigErrors(t *testing.T) {
	runShared := func(withToolChecks bool) *Profile {
		tgt, err := MySQLSharedFactory(withToolChecks)(0)
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{
			Target:    tgt.Target,
			Generator: TypoGenerator(TypoOptions{Seed: 31, NamesOnly: true, PerDirective: 8}),
		}
		p, err := c.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	without := runShared(false)
	with := runShared(true)

	// Without tool checks, name typos in the aux groups are silently
	// absorbed at startup AND by the server functional test.
	ignoredWithout := without.Summarize().Ignored
	if ignoredWithout == 0 {
		t.Fatal("expected latent (ignored) faults in the shared config")
	}
	// With tool checks, a chunk of those become detected-by-test.
	byTest := with.Summarize().ByTest
	if byTest == 0 {
		t.Fatal("tool checks detected nothing; latent mechanism broken")
	}
	ignoredWith := with.Summarize().Ignored
	if ignoredWith >= ignoredWithout {
		t.Errorf("tool checks did not reduce ignored faults: %d -> %d", ignoredWithout, ignoredWith)
	}
	t.Logf("latent faults: %d ignored without tool runs; %d surfaced when tools run",
		ignoredWithout, byTest)
}
