package profile

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleProfile() *Profile {
	p := &Profile{System: "mysql-sim", Generator: "typo"}
	add := func(class string, o Outcome) {
		p.Add(Record{
			ScenarioID: class + "/" + o.String(), Class: class, Outcome: o,
		})
	}
	add("typo/omission", DetectedAtStartup)
	add("typo/omission", DetectedAtStartup)
	add("typo/omission", Ignored)
	add("typo/substitution", DetectedByTest)
	add("typo/substitution", Ignored)
	add("typo/case", NotExpressible)
	add("typo/case", NotApplicable)
	return p
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		DetectedAtStartup:   "detected-at-startup",
		DetectedByTest:      "detected-by-test",
		Ignored:             "ignored",
		NotExpressible:      "not-expressible",
		NotApplicable:       "not-applicable",
		InfrastructureError: "infrastructure-error",
		Outcome(0):          "outcome(0)",
		Outcome(-1):         "outcome(-1)",
		Outcome(7):          "outcome(7)",
		Outcome(42):         "outcome(42)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestOutcomeDetected(t *testing.T) {
	if !DetectedAtStartup.Detected() || !DetectedByTest.Detected() {
		t.Error("detections should report Detected")
	}
	if Ignored.Detected() || NotExpressible.Detected() || NotApplicable.Detected() {
		t.Error("non-detections should not report Detected")
	}
}

// TestInjected checks a profile's fold counts as injected every record
// but the not-expressible and not-applicable ones, and that an empty
// profile still yields its campaign.
func TestInjected(t *testing.T) {
	c := sampleProfile().Stats(nil)
	if c.System != "mysql-sim" || c.Generator != "typo" || c.Records != 7 || c.Summary.Injected != 5 {
		t.Errorf("stats = %+v", c)
	}
	empty := (&Profile{System: "x", Generator: "g"}).Stats(nil)
	if empty.System != "x" || empty.Generator != "g" || empty.Records != 0 || len(empty.Classes()) != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

// TestCountByClass checks a profile's fold tallies every class apart.
func TestCountByClass(t *testing.T) {
	c := sampleProfile().Stats(nil)
	byClass := make(map[string]Summary)
	for _, cs := range c.Classes() {
		byClass[cs.Class] = cs.Summary
	}
	if len(byClass) != 3 || byClass["typo/omission"].AtStartup != 2 ||
		byClass["typo/substitution"].Ignored != 1 || byClass["typo/case"].NotExpressible != 1 {
		t.Errorf("classes = %+v", byClass)
	}
}

func TestDetectionRate(t *testing.T) {
	p := sampleProfile()
	// 3 detected out of 5 injected.
	if got := p.DetectionRate(); got != 0.6 {
		t.Errorf("DetectionRate = %v, want 0.6", got)
	}
	empty := &Profile{}
	if empty.DetectionRate() != 0 {
		t.Error("empty profile rate should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := sampleProfile().Summarize()
	if s.System != "mysql-sim" {
		t.Errorf("System = %q", s.System)
	}
	if s.Injected != 5 || s.AtStartup != 2 || s.ByTest != 1 || s.Ignored != 2 || s.NotExpressible != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestFormatTable1(t *testing.T) {
	a := Summary{System: "MySQL", Injected: 327, AtStartup: 270, ByTest: 1, Ignored: 56}
	b := Summary{System: "Postgres", Injected: 98, AtStartup: 76, ByTest: 0, Ignored: 22}
	out := FormatTable1(a, b)
	for _, want := range []string{"MySQL", "Postgres", "327 (100%)", "270 (83%)", "76 (78%)", "56 (17%)", "22 (22%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Empty summary renders dashes, not division by zero.
	out = FormatTable1(Summary{System: "X"})
	if !strings.Contains(out, "-") {
		t.Errorf("zero-injection table:\n%s", out)
	}
}

func TestBandOf(t *testing.T) {
	cases := []struct {
		rate float64
		want Band
	}{
		{0, Poor}, {0.24, Poor}, {0.25, Fair}, {0.49, Fair},
		{0.5, Good}, {0.74, Good}, {0.75, Excellent}, {1, Excellent},
	}
	for _, tt := range cases {
		if got := BandOf(tt.rate); got != tt.want {
			t.Errorf("BandOf(%v) = %v, want %v", tt.rate, got, tt.want)
		}
	}
}

func TestBandString(t *testing.T) {
	for b, want := range map[Band]string{Poor: "poor", Fair: "fair", Good: "good", Excellent: "excellent", Band(9): "band(9)"} {
		if b.String() != want {
			t.Errorf("Band(%d) = %q", int(b), b.String())
		}
	}
}

func TestBandByKey(t *testing.T) {
	p := &Profile{System: "pg-sim"}
	// Directive "a": 4/4 detected -> excellent. "b": 0/4 -> poor.
	for i := 0; i < 4; i++ {
		p.Add(Record{ScenarioID: "sa", Class: "a", Outcome: DetectedAtStartup})
		p.Add(Record{ScenarioID: "sb", Class: "b", Outcome: Ignored})
	}
	// A not-expressible record and an empty-key record are excluded.
	p.Add(Record{ScenarioID: "sx", Class: "a", Outcome: NotExpressible})
	p.Add(Record{ScenarioID: "se", Class: "", Outcome: Ignored})
	b := p.Stats(func(r Record) string { return r.Class }).Banding()
	if b.Directives != 2 {
		t.Fatalf("Directives = %d, want 2", b.Directives)
	}
	if b.Share[Excellent] != 0.5 || b.Share[Poor] != 0.5 {
		t.Errorf("Share = %v", b.Share)
	}
}

func TestFormatFigure3(t *testing.T) {
	a := Banding{System: "Postgres", Directives: 20, Share: map[Band]float64{Excellent: 0.45, Poor: 0.2, Fair: 0.15, Good: 0.2}}
	b := Banding{System: "MySQL", Directives: 20, Share: map[Band]float64{Poor: 0.45, Excellent: 0.2, Fair: 0.2, Good: 0.15}}
	out := FormatFigure3(a, b)
	for _, want := range []string{"Postgres", "MySQL", "excellent", "poor", "45%"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing %q:\n%s", want, out)
		}
	}
}

func TestFormatRecords(t *testing.T) {
	p := sampleProfile()
	p.Records[0].Detail = "line one\nline two"
	out := p.FormatRecords()
	if !strings.Contains(out, "detected-at-startup") {
		t.Errorf("records missing outcome:\n%s", out)
	}
	if strings.Contains(out, "line two") {
		t.Error("detail should be truncated to first line")
	}
	// Sorted by scenario ID.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(p.Records) {
		t.Errorf("lines = %d, want %d", len(lines), len(p.Records))
	}
}

func TestPropertyBandSharesSumToOne(t *testing.T) {
	f := func(outcomes []bool) bool {
		if len(outcomes) == 0 {
			return true
		}
		p := &Profile{}
		for i, d := range outcomes {
			o := Ignored
			if d {
				o = DetectedAtStartup
			}
			p.Add(Record{ScenarioID: "s", Class: string(rune('a' + i%7)), Outcome: o})
		}
		b := p.Stats(func(r Record) string { return r.Class }).Banding()
		sum := 0.0
		for _, v := range b.Share {
			sum += v
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompare(t *testing.T) {
	before := &Profile{System: "s"}
	after := &Profile{System: "s"}
	add := func(p *Profile, id string, o Outcome) {
		p.Add(Record{ScenarioID: id, Class: "c", Outcome: o})
	}
	add(before, "a", Ignored)
	add(after, "a", DetectedAtStartup) // improved
	add(before, "b", DetectedAtStartup)
	add(after, "b", Ignored) // regressed
	add(before, "c", DetectedAtStartup)
	add(after, "c", DetectedByTest) // unchanged (both detected)
	add(before, "d", Ignored)
	add(after, "d", Ignored) // unchanged
	add(before, "gone", Ignored)
	add(after, "new", Ignored)

	cmp := Compare(before, after)
	if len(cmp.Improved) != 1 || cmp.Improved[0] != "a" {
		t.Errorf("Improved = %v", cmp.Improved)
	}
	if len(cmp.Regressed) != 1 || cmp.Regressed[0] != "b" {
		t.Errorf("Regressed = %v", cmp.Regressed)
	}
	if cmp.Unchanged != 2 {
		t.Errorf("Unchanged = %d", cmp.Unchanged)
	}
	if len(cmp.OnlyBefore) != 1 || cmp.OnlyBefore[0] != "gone" {
		t.Errorf("OnlyBefore = %v", cmp.OnlyBefore)
	}
	if len(cmp.OnlyAfter) != 1 || cmp.OnlyAfter[0] != "new" {
		t.Errorf("OnlyAfter = %v", cmp.OnlyAfter)
	}
}
