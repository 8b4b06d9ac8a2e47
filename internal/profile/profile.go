// Package profile defines the resilience profile — ConfErr's sole output
// (paper §3.1): the per-injection outcomes, plus the aggregations used by
// the paper's evaluation (Table 1 outcome counts, Table 2 variation-class
// acceptance, Table 3 semantic fault findings, and Figure 3's per-directive
// detection bands).
package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Outcome classifies the effect of one injected configuration error on the
// system under test (paper §3.1 lists the three observable outcomes; the
// two additional values cover scenarios that never reach the SUT).
type Outcome int

// Outcome values.
const (
	// DetectedAtStartup means the SUT refused to start — it detected the
	// configuration error itself.
	DetectedAtStartup Outcome = iota + 1
	// DetectedByTest means the SUT started but one or more functional
	// tests failed — the error had impact the SUT did not catch.
	DetectedByTest
	// Ignored means the SUT started and all functional tests passed — the
	// injected error was silently absorbed (or harmless).
	Ignored
	// NotExpressible means the mutated configuration could not be mapped
	// back to the system's file format (paper §5.4); the fault was never
	// injected.
	NotExpressible
	// NotApplicable means the scenario could not be applied to the
	// configuration at all (stale target); it is excluded from totals.
	NotApplicable
	// InfrastructureError means the harness, not the SUT, failed the
	// experiment: a phase watchdog expired, a worker panicked, or the
	// lifecycle machinery broke. It says nothing about the SUT's
	// resilience and is excluded from all detection statistics; the
	// record exists so a campaign's seq space stays gap-free and the
	// failure is auditable (phase, elapsed time, stack in Detail).
	InfrastructureError
)

// outcomeNames holds each outcome's kebab-case name at its own index;
// index 0 is no outcome.
var outcomeNames = [...]string{
	DetectedAtStartup:   "detected-at-startup",
	DetectedByTest:      "detected-by-test",
	Ignored:             "ignored",
	NotExpressible:      "not-expressible",
	NotApplicable:       "not-applicable",
	InfrastructureError: "infrastructure-error",
}

// String returns the outcome's kebab-case name.
func (o Outcome) String() string {
	if o >= DetectedAtStartup && int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// outcomeByName resolves a kebab-case outcome name, or returns 0 for
// an unknown one. It takes bytes so a decoder can resolve a name
// without allocating it.
func outcomeByName(name []byte) Outcome {
	for o := DetectedAtStartup; int(o) < len(outcomeNames); o++ {
		if string(name) == outcomeNames[o] {
			return o
		}
	}
	return 0
}

// Detected reports whether the outcome counts as the system detecting the
// error (at startup or via functional tests).
func (o Outcome) Detected() bool {
	return o == DetectedAtStartup || o == DetectedByTest
}

// Record is the result of one injection experiment.
type Record struct {
	// ScenarioID identifies the injected fault scenario.
	ScenarioID string
	// Class is the scenario's fault class (e.g. "typo/omission").
	Class string
	// Description restates the injected mutation.
	Description string
	// Outcome is what happened.
	Outcome Outcome
	// Detail carries the SUT's error message or the failing test name.
	Detail string
	// Duration is the wall-clock time of the experiment.
	Duration time.Duration
}

// Profile is the resilience profile of one system under one error
// generator: the full list of injection results.
type Profile struct {
	// System names the system under test.
	System string
	// Generator names the error-generator plugin that produced the faults.
	Generator string
	// Records holds one entry per synthesized scenario.
	Records []Record
}

// Add appends a record.
func (p *Profile) Add(r Record) {
	p.Records = append(p.Records, r)
}

// counted reports whether the outcome participates in detection
// statistics — i.e. the fault reached the SUT and the SUT's reaction was
// observed.
func (o Outcome) counted() bool {
	return o != NotApplicable && o != NotExpressible && o != InfrastructureError
}

// DetectionRate returns the fraction of injected faults the system
// detected (startup or test), in [0,1]. It returns 0 when nothing was
// injected.
func (p *Profile) DetectionRate() float64 { return p.Stats(nil).DetectionRate() }

// Summary is the Table 1 row shape: total injections and the share
// detected at startup, detected by functional tests, and ignored.
type Summary struct {
	// System names the SUT.
	System string
	// Injected is the number of faults that reached the SUT.
	Injected int
	// AtStartup counts startup-time detections.
	AtStartup int
	// ByTest counts functional-test detections.
	ByTest int
	// Ignored counts silently absorbed faults.
	Ignored int
	// NotExpressible counts faults that could not be serialized.
	NotExpressible int
	// Infrastructure counts experiments the harness itself failed
	// (watchdog expiry, worker panic). Excluded from Injected.
	Infrastructure int `json:",omitempty"`
}

// Add folds one record's outcome into the summary — the single fold
// shared by Profile.Summarize and the streaming TallySink.
func (s *Summary) Add(r Record) {
	switch r.Outcome {
	case DetectedAtStartup:
		s.Injected++
		s.AtStartup++
	case DetectedByTest:
		s.Injected++
		s.ByTest++
	case Ignored:
		s.Injected++
		s.Ignored++
	case NotExpressible:
		s.NotExpressible++
	case InfrastructureError:
		s.Infrastructure++
	case NotApplicable:
		// Excluded from all counts.
	}
}

// Merge adds o's counts into s (System is kept from s) — the fold behind
// sharded tally counters.
func (s *Summary) Merge(o Summary) {
	s.Injected += o.Injected
	s.AtStartup += o.AtStartup
	s.ByTest += o.ByTest
	s.Ignored += o.Ignored
	s.NotExpressible += o.NotExpressible
	s.Infrastructure += o.Infrastructure
}

// Summarize computes the Table 1 style summary of the profile.
func (p *Profile) Summarize() Summary {
	s := Summary{System: p.System}
	for _, r := range p.Records {
		s.Add(r)
	}
	return s
}

// pct renders n/total as a percentage string.
func pct(n, total int) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%d%%", int(float64(n)/float64(total)*100+0.5))
}

// FormatTable1 renders summaries side by side in the shape of the paper's
// Table 1 ("Resilience to typos").
func FormatTable1(summaries ...Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "")
	for _, s := range summaries {
		fmt.Fprintf(&b, "%16s", s.System)
	}
	b.WriteByte('\n')
	row := func(label string, get func(Summary) string) {
		fmt.Fprintf(&b, "%-28s", label)
		for _, s := range summaries {
			fmt.Fprintf(&b, "%16s", get(s))
		}
		b.WriteByte('\n')
	}
	row("# of Injected Errors", func(s Summary) string {
		return fmt.Sprintf("%d (100%%)", s.Injected)
	})
	row("Detected by system at startup", func(s Summary) string {
		return fmt.Sprintf("%d (%s)", s.AtStartup, pct(s.AtStartup, s.Injected))
	})
	row("Detected by functional tests", func(s Summary) string {
		return fmt.Sprintf("%d (%s)", s.ByTest, pct(s.ByTest, s.Injected))
	})
	row("Ignored", func(s Summary) string {
		return fmt.Sprintf("%d (%s)", s.Ignored, pct(s.Ignored, s.Injected))
	})
	return b.String()
}

// Band is a Figure 3 detection band.
type Band int

// Bands per the paper's Figure 3: poor (0–25% of faults detected), fair
// (25–50%), good (50–75%), excellent (75–100%).
const (
	Poor Band = iota + 1
	Fair
	Good
	Excellent
)

// String returns the band's name.
func (b Band) String() string {
	switch b {
	case Poor:
		return "poor"
	case Fair:
		return "fair"
	case Good:
		return "good"
	case Excellent:
		return "excellent"
	default:
		return fmt.Sprintf("band(%d)", int(b))
	}
}

// BandOf classifies a detection rate in [0,1] into its band. Boundaries
// follow the paper: a rate of exactly 25% falls into Fair, 50% into Good,
// 75% into Excellent.
func BandOf(rate float64) Band {
	switch {
	case rate < 0.25:
		return Poor
	case rate < 0.50:
		return Fair
	case rate < 0.75:
		return Good
	default:
		return Excellent
	}
}

// Banding is the Figure 3 shape for one system: the share of directives
// whose per-directive detection rate falls into each band.
type Banding struct {
	// System names the SUT.
	System string
	// Directives is the number of directives measured.
	Directives int
	// Share maps each band to its fraction of directives, in [0,1].
	Share map[Band]float64
}

// FormatFigure3 renders bandings as a text histogram in the shape of the
// paper's Figure 3.
func FormatFigure3(bandings ...Banding) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "")
	for _, bd := range bandings {
		fmt.Fprintf(&b, "%14s", bd.System)
	}
	b.WriteByte('\n')
	for _, band := range []Band{Excellent, Good, Fair, Poor} {
		fmt.Fprintf(&b, "%-12s", band.String())
		for _, bd := range bandings {
			fmt.Fprintf(&b, "%13.0f%%", bd.Share[band]*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatRecords renders the full profile, one line per record, sorted by
// scenario ID — the raw resilience profile.
func (p *Profile) FormatRecords() string {
	recs := make([]Record, len(p.Records))
	copy(recs, p.Records)
	sort.Slice(recs, func(i, j int) bool { return recs[i].ScenarioID < recs[j].ScenarioID })
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%-22s %-60s %s", r.Outcome, r.ScenarioID, r.Description)
		if r.Detail != "" {
			fmt.Fprintf(&b, " [%s]", firstLine(r.Detail))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Comparison is the result of diffing two profiles of the same faultload
// — the paper's development-feedback use case: quantifying the resilience
// impact of a design change (§1, "prompt feedback during development").
type Comparison struct {
	// Improved lists scenario IDs that went from undetected to detected.
	Improved []string
	// Regressed lists scenario IDs that went from detected to undetected.
	Regressed []string
	// Unchanged counts scenarios with the same detection status.
	Unchanged int
	// OnlyBefore / OnlyAfter list scenario IDs present in one profile
	// only (faultload drift — usually a configuration mismatch).
	OnlyBefore []string
	OnlyAfter  []string
}

// Compare diffs two profiles by scenario ID, classifying each shared
// scenario by whether the system's detection improved, regressed or
// stayed the same between the two runs.
func Compare(before, after *Profile) Comparison {
	var c Comparison
	beforeBy := make(map[string]Record, len(before.Records))
	for _, r := range before.Records {
		beforeBy[r.ScenarioID] = r
	}
	seen := make(map[string]bool, len(after.Records))
	for _, ra := range after.Records {
		seen[ra.ScenarioID] = true
		rb, ok := beforeBy[ra.ScenarioID]
		if !ok {
			c.OnlyAfter = append(c.OnlyAfter, ra.ScenarioID)
			continue
		}
		switch {
		case rb.Outcome.Detected() == ra.Outcome.Detected():
			c.Unchanged++
		case ra.Outcome.Detected():
			c.Improved = append(c.Improved, ra.ScenarioID)
		default:
			c.Regressed = append(c.Regressed, ra.ScenarioID)
		}
	}
	for _, rb := range before.Records {
		if !seen[rb.ScenarioID] {
			c.OnlyBefore = append(c.OnlyBefore, rb.ScenarioID)
		}
	}
	return c
}
