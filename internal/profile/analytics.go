package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StreamStats folds a record stream — either profile format, any size —
// into every report shape at once: per-campaign outcome summaries
// (Table 1), per-class breakdowns (Tables 2–3), per-directive detection
// bands (Figure 3), and resilience scorecards. Memory is proportional
// to the number of distinct campaigns, classes, and banding keys, never
// to the record count, so a 100M-record fleet profile folds in one pass
// without materializing a Profile. Add matches the scan callbacks'
// shape, and the scans call it on the caller's goroutine.
type StreamStats struct {
	// Key, when non-nil, groups injected records for the Figure 3
	// banding (typically the directive a fault targeted). Nil disables
	// banding.
	Key func(Record) string

	byName    map[string]*CampaignStats
	campaigns []*CampaignStats
	last      *CampaignStats // the previous record's campaign: runs of one campaign skip the map
	records   int
}

// NewStreamStats returns an empty fold; key may be nil.
func NewStreamStats(key func(Record) string) *StreamStats {
	return &StreamStats{Key: key, byName: make(map[string]*CampaignStats)}
}

// CampaignStats is one campaign's aggregation.
type CampaignStats struct {
	// System and Generator identify the campaign.
	System    string
	Generator string
	// Records counts every record seen, including not-applicable ones.
	Records int
	// Summary is the campaign's Table 1 row.
	Summary Summary
	// Duration totals the experiments' wall-clock time.
	Duration time.Duration

	classes map[string]*Summary
	groups  map[string]*bandCount
}

// bandCount is one banding group's detection tally.
type bandCount struct{ detected, total int }

// Add folds one entry.
func (s *StreamStats) Add(e JSONLEntry) error {
	c := s.last
	if c == nil || c.System != e.System || c.Generator != e.Generator {
		key := e.System + "\x00" + e.Generator
		if c = s.byName[key]; c == nil {
			c = &CampaignStats{
				System:    e.System,
				Generator: e.Generator,
				Summary:   Summary{System: e.System},
				classes:   make(map[string]*Summary),
			}
			s.byName[key] = c
			s.campaigns = append(s.campaigns, c)
		}
		s.last = c
	}
	r := e.Record
	s.records++
	c.Records++
	c.Summary.Add(r)
	c.Duration += r.Duration
	cs := c.classes[r.Class]
	if cs == nil {
		cs = &Summary{System: r.Class}
		c.classes[r.Class] = cs
	}
	cs.Add(r)
	if s.Key != nil && r.Outcome.counted() {
		if k := s.Key(r); k != "" {
			if c.groups == nil {
				c.groups = make(map[string]*bandCount)
			}
			g := c.groups[k]
			if g == nil {
				g = &bandCount{}
				c.groups[k] = g
			}
			g.total++
			if r.Outcome.Detected() {
				g.detected++
			}
		}
	}
	return nil
}

// Stats folds the profile's records through a StreamStats and returns
// its one campaign — the fold behind the paper's tables and `conferr
// report` alike. key groups records for the Figure 3 banding, as in
// NewStreamStats (nil: no banding).
func (p *Profile) Stats(key func(Record) string) *CampaignStats {
	s := NewStreamStats(key)
	for _, r := range p.Records {
		_ = s.Add(JSONLEntry{System: p.System, Generator: p.Generator, Record: r})
	}
	if c := s.byName[p.System+"\x00"+p.Generator]; c != nil {
		return c
	}
	return &CampaignStats{System: p.System, Generator: p.Generator, Summary: Summary{System: p.System}}
}

// TotalRecords returns the total records folded.
func (s *StreamStats) TotalRecords() int { return s.records }

// Campaigns returns the per-campaign stats sorted by (system,
// generator) — deterministic whatever order frames or workers delivered
// records in.
func (s *StreamStats) Campaigns() []*CampaignStats {
	out := make([]*CampaignStats, len(s.campaigns))
	copy(out, s.campaigns)
	sort.Slice(out, func(i, j int) bool {
		if out[i].System != out[j].System {
			return out[i].System < out[j].System
		}
		return out[i].Generator < out[j].Generator
	})
	return out
}

// ClassStats is one fault class's Table 2/3-shaped row.
type ClassStats struct {
	// Class is the fault class.
	Class string
	// Summary tallies the class's outcomes (its System field holds the
	// class name).
	Summary Summary
}

// Classes returns the campaign's per-class stats sorted by class name.
func (c *CampaignStats) Classes() []ClassStats {
	out := make([]ClassStats, 0, len(c.classes))
	for class, s := range c.classes {
		out = append(out, ClassStats{Class: class, Summary: *s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// DetectionRate returns the campaign's detected/injected fraction in
// [0,1] (0 when nothing was injected).
func (c *CampaignStats) DetectionRate() float64 { return detectionRate(c.Summary) }

func detectionRate(s Summary) float64 {
	if s.Injected == 0 {
		return 0
	}
	return float64(s.AtStartup+s.ByTest) / float64(s.Injected)
}

// Banding returns the campaign's Figure 3 band distribution over the
// fold's Key groups (zero-valued when no key was set).
func (c *CampaignStats) Banding() Banding {
	b := Banding{System: c.System, Directives: len(c.groups), Share: make(map[Band]float64)}
	if len(c.groups) == 0 {
		return b
	}
	counts := make(map[Band]int)
	for _, g := range c.groups {
		counts[BandOf(float64(g.detected)/float64(g.total))]++
	}
	for band, n := range counts {
		b.Share[band] = float64(n) / float64(len(c.groups))
	}
	return b
}

// label names a campaign in report output: the system alone when it is
// unambiguous, system/generator otherwise.
func (s *StreamStats) labels(campaigns []*CampaignStats) []string {
	perSystem := make(map[string]int)
	for _, c := range campaigns {
		perSystem[c.System]++
	}
	out := make([]string, len(campaigns))
	for i, c := range campaigns {
		if perSystem[c.System] > 1 {
			out[i] = c.System + "/" + c.Generator
		} else {
			out[i] = c.System
		}
	}
	return out
}

// FormatReport renders the full report: outcome summaries in the
// paper's Table 1 shape, a per-campaign resilience scorecard, per-class
// breakdowns in the Table 2/3 shape, and — when a banding key is set —
// the Figure 3 band histogram.
func (s *StreamStats) FormatReport() string {
	var b strings.Builder
	campaigns := s.Campaigns()
	labels := s.labels(campaigns)

	var total time.Duration
	for _, c := range campaigns {
		total += c.Duration
	}
	fmt.Fprintf(&b, "%d records, %d campaigns", s.records, len(campaigns))
	if total > 0 {
		fmt.Fprintf(&b, ", %s total experiment time", total.Round(time.Millisecond))
	}
	b.WriteString("\n\n== Outcome summary (Table 1 shape) ==\n")
	summaries := make([]Summary, len(campaigns))
	for i, c := range campaigns {
		summaries[i] = c.Summary
		summaries[i].System = labels[i]
	}
	b.WriteString(FormatTable1(summaries...))

	b.WriteString("\n== Resilience scorecard ==\n")
	fmt.Fprintf(&b, "%-28s %10s %10s %10s %11s\n", "campaign", "records", "injected", "detection", "band")
	for i, c := range campaigns {
		rate := c.DetectionRate()
		fmt.Fprintf(&b, "%-28s %10d %10d %9.1f%% %11s\n",
			labels[i], c.Records, c.Summary.Injected, rate*100, BandOf(rate))
	}

	for i, c := range campaigns {
		fmt.Fprintf(&b, "\n== Per-class outcomes: %s (Table 2/3 shape) ==\n", labels[i])
		fmt.Fprintf(&b, "%-32s %9s %9s %9s %9s %9s %10s\n",
			"class", "injected", "startup", "test", "ignored", "not-expr", "detection")
		for _, cs := range c.Classes() {
			fmt.Fprintf(&b, "%-32s %9d %9d %9d %9d %9d %9.1f%%\n",
				cs.Class, cs.Summary.Injected, cs.Summary.AtStartup, cs.Summary.ByTest,
				cs.Summary.Ignored, cs.Summary.NotExpressible, detectionRate(cs.Summary)*100)
		}
	}

	if s.Key != nil {
		bandings := make([]Banding, len(campaigns))
		for i, c := range campaigns {
			bandings[i] = c.Banding()
			bandings[i].System = labels[i]
		}
		b.WriteString("\n== Per-directive detection bands (Figure 3 shape) ==\n")
		b.WriteString(FormatFigure3(bandings...))
		fmt.Fprintf(&b, "%-12s", "directives")
		for _, bd := range bandings {
			fmt.Fprintf(&b, "%14d", bd.Directives)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DiffRow is one line of a campaign-vs-campaign diff: a campaign total
// (Class == "") or one fault class's slice of it.
type DiffRow struct {
	System    string
	Generator string
	Class     string
	// Before and After are the two sides' detection rates in [0,1], with
	// the injected counts they were computed over.
	Before, After                 float64
	BeforeInjected, AfterInjected int
	// DeltaPP is After-Before in percentage points; negative means the
	// detection rate regressed.
	DeltaPP float64
}

// StatsDiff is the comparison of two folds — the CI resilience
// regression gate's input.
type StatsDiff struct {
	// Rows holds campaign totals and per-class rows for every campaign
	// and class present in both folds, sorted.
	Rows []DiffRow
	// OnlyBefore and OnlyAfter name campaigns present in one fold only
	// (faultload or matrix drift).
	OnlyBefore []string
	OnlyAfter  []string
}

// DiffStats compares two folds campaign by campaign and class by class.
func DiffStats(before, after *StreamStats) StatsDiff {
	var d StatsDiff
	beforeBy := before.byName
	seen := make(map[string]bool)
	for _, ac := range after.Campaigns() {
		key := ac.System + "\x00" + ac.Generator
		seen[key] = true
		bc := beforeBy[key]
		if bc == nil {
			d.OnlyAfter = append(d.OnlyAfter, ac.System+"/"+ac.Generator)
			continue
		}
		d.Rows = append(d.Rows, diffRow(ac.System, ac.Generator, "", bc.Summary, ac.Summary))
		for _, acs := range ac.Classes() {
			bcs, ok := bc.classes[acs.Class]
			if !ok {
				continue
			}
			d.Rows = append(d.Rows, diffRow(ac.System, ac.Generator, acs.Class, *bcs, acs.Summary))
		}
	}
	for _, bc := range before.Campaigns() {
		if !seen[bc.System+"\x00"+bc.Generator] {
			d.OnlyBefore = append(d.OnlyBefore, bc.System+"/"+bc.Generator)
		}
	}
	return d
}

func diffRow(system, generator, class string, before, after Summary) DiffRow {
	br, ar := detectionRate(before), detectionRate(after)
	return DiffRow{
		System: system, Generator: generator, Class: class,
		Before: br, After: ar,
		BeforeInjected: before.Injected, AfterInjected: after.Injected,
		DeltaPP: (ar - br) * 100,
	}
}

// MaxRegressionPP returns the largest detection-rate drop across all
// rows, in percentage points (0 when nothing regressed).
func (d StatsDiff) MaxRegressionPP() float64 {
	worst := 0.0
	for _, r := range d.Rows {
		if -r.DeltaPP > worst {
			worst = -r.DeltaPP
		}
	}
	return worst
}

// FormatDiff renders the diff, campaign totals with their class rows
// indented beneath them.
func (d StatsDiff) FormatDiff() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %18s %18s %9s\n", "campaign / class", "before", "after", "delta")
	for _, r := range d.Rows {
		name := r.System + "/" + r.Generator
		if r.Class != "" {
			name = "  " + r.Class
		}
		fmt.Fprintf(&b, "%-44s %9.1f%% (%6d) %9.1f%% (%6d) %+8.1fpp\n",
			name, r.Before*100, r.BeforeInjected, r.After*100, r.AfterInjected, r.DeltaPP)
	}
	for _, name := range d.OnlyBefore {
		fmt.Fprintf(&b, "%-44s only in before\n", name)
	}
	for _, name := range d.OnlyAfter {
		fmt.Fprintf(&b, "%-44s only in after\n", name)
	}
	fmt.Fprintf(&b, "max regression: %.1fpp\n", d.MaxRegressionPP())
	return b.String()
}
