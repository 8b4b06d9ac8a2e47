// Package conferr is a tool for testing and quantifying the resilience of
// software systems to human-induced configuration errors, reproducing
// Keller, Upadhyaya and Candea, "ConfErr: A Tool for Assessing Resilience
// to Human Configuration Errors" (DSN 2008).
//
// ConfErr parses a system's configuration files into abstract trees, maps
// them into the view an error-generator plugin operates on, synthesizes
// fault scenarios from psychologically grounded human-error models
// (spelling mistakes, structural mistakes, semantic mistakes), injects
// each fault, starts the system under test, runs functional tests, and
// records the outcome of every injection in a resilience profile.
//
// This package is the public facade. Targets and plugins live in a
// name-based registry (RegisterTarget, RegisterGenerator, LookupTarget,
// LookupGenerator), pre-populated with the five simulated systems of the
// paper's evaluation (MySQL, Postgres, Apache, BIND, djbdns) and the three
// error-generator plugins. Campaigns run through a context-aware Runner
// that fans the faultload out over N workers — each owning its own SUT
// instance — and merges the results into a deterministic,
// scenario-ordered Profile, identical to the sequential run's.
//
// A minimal parallel campaign:
//
//	runner, err := conferr.NewRunnerFor("postgres", "typo",
//	    conferr.GeneratorOptions{Seed: 1, PerModel: 10})
//	// handle err
//	prof, err := runner.Run(ctx, conferr.WithParallelism(8))
//	// handle err
//	fmt.Println(prof.FormatRecords())
package conferr

import (
	"fmt"
	"io"

	"conferr/internal/confnode"
	"conferr/internal/core"
	"conferr/internal/keyboard"
	"conferr/internal/plugins/editsim"
	"conferr/internal/plugins/semantic"
	"conferr/internal/plugins/structural"
	"conferr/internal/plugins/typo"
	"conferr/internal/proc"
	"conferr/internal/profile"
	"conferr/internal/suts"
	"conferr/internal/view"
)

// Core engine types, re-exported for API users.
type (
	// Campaign is one ConfErr run: a target plus an error generator.
	Campaign = core.Campaign
	// Target bundles the SUT, its file formats and functional tests.
	Target = core.Target
	// Generator is an error-generator plugin.
	Generator = core.Generator
	// StreamingGenerator is a Generator that emits its faultload lazily.
	StreamingGenerator = core.StreamingGenerator
	// Sink consumes injection records as they are produced (streaming
	// campaigns).
	Sink = profile.Sink
	// TallySink folds records into a running Summary in O(1) memory.
	TallySink = profile.TallySink
	// MemorySink accumulates records into a Profile.
	MemorySink = profile.MemorySink
	// Profile is the resilience profile — ConfErr's output.
	Profile = profile.Profile
	// Record is one injection result within a profile.
	Record = profile.Record
	// Outcome classifies an injection result.
	Outcome = profile.Outcome
	// Summary is the Table 1 row shape.
	Summary = profile.Summary
	// Banding is the Figure 3 shape.
	Banding = profile.Banding
	// System is a system under test.
	System = suts.System
	// Test is a functional test.
	Test = suts.Test
)

// Outcome values, re-exported.
const (
	DetectedAtStartup   = profile.DetectedAtStartup
	DetectedByTest      = profile.DetectedByTest
	Ignored             = profile.Ignored
	NotExpressible      = profile.NotExpressible
	NotApplicable       = profile.NotApplicable
	InfrastructureError = profile.InfrastructureError
)

// Band is a Figure 3 detection band.
type Band = profile.Band

// Band values, re-exported.
const (
	Poor      = profile.Poor
	Fair      = profile.Fair
	Good      = profile.Good
	Excellent = profile.Excellent
)

// TypoOptions configures the spelling-mistakes generator.
type TypoOptions struct {
	// Seed makes the faultload reproducible.
	Seed int64
	// PerModel bounds scenarios per submodel (0 = all).
	PerModel int
	// PerDirective bounds scenarios per directive (0 = off) — the §5.5
	// faultload shape.
	PerDirective int
	// NamesOnly restricts typos to directive names.
	NamesOnly bool
	// ValuesOnly restricts typos to directive values.
	ValuesOnly bool
	// SwissKeyboard selects the Swiss-German layout instead of US-QWERTY.
	SwissKeyboard bool
}

// TypoGenerator returns the spelling-mistakes plugin (paper §4.1).
func TypoGenerator(opts TypoOptions) Generator {
	p := &typo.Plugin{
		PerModel:     opts.PerModel,
		PerDirective: opts.PerDirective,
		Seed:         opts.Seed,
	}
	if opts.SwissKeyboard {
		p.Layout = keyboard.SwissGerman()
	}
	switch {
	case opts.NamesOnly:
		p.Token = view.TokenName
	case opts.ValuesOnly:
		p.Token = view.TokenValue
	}
	return p
}

// StructuralOptions configures the structural-faults generator.
type StructuralOptions struct {
	// Seed makes the faultload reproducible.
	Seed int64
	// PerClass bounds scenarios per fault class (0 = all).
	PerClass int
	// Sections enables section-level omission/duplication.
	Sections bool
}

// StructuralGenerator returns the structural-errors plugin (paper §4.2).
func StructuralGenerator(opts StructuralOptions) Generator {
	return &structural.Plugin{
		Sections: opts.Sections,
		PerClass: opts.PerClass,
		Seed:     opts.Seed,
	}
}

// VariationsGenerator returns the §5.3 structure-preserving variations
// generator (Table 2). perClass 0 means the paper's 10 files per class;
// classes nil means all five Table 2 rows.
func VariationsGenerator(seed int64, perClass int, classes []string) Generator {
	return &structural.Variations{
		Classes:  classes,
		PerClass: perClass,
		Seed:     seed,
	}
}

// SemanticDNSGenerator returns the RFC-1912 semantic-errors plugin (paper
// §4.3) over the given record view (BINDRecordView or DjbdnsRecordView).
// classes nil means all fault classes.
func SemanticDNSGenerator(recordView view.View, classes []string) Generator {
	return &semantic.Plugin{RecordView: recordView, Classes: classes}
}

// Edit is one valid configuration change of a simulated administration
// task (§5.5 benchmark procedure).
type Edit = editsim.Edit

// EditBenchmarkGenerator returns the §5.5 human-error benchmark plugin:
// each scenario applies one valid edit of the task and injects one
// spelling mistake into the freshly typed value — errors in close
// proximity to where the administrator was working. perEdit 0 means the
// paper's 20 experiments per edit.
func EditBenchmarkGenerator(edits []Edit, seed int64, perEdit int) Generator {
	return &editsim.Plugin{
		Edits:   edits,
		PerEdit: perEdit,
		Seed:    seed,
	}
}

// FormatTable1 renders summaries in the paper's Table 1 shape.
func FormatTable1(summaries ...Summary) string { return profile.FormatTable1(summaries...) }

// FormatFigure3 renders bandings in the paper's Figure 3 shape.
func FormatFigure3(bandings ...Banding) string { return profile.FormatFigure3(bandings...) }

// TypoDirectiveKey extracts the directive key from a typo scenario ID, the
// grouping key for Figure 3 banding.
func TypoDirectiveKey(scenarioID string) string { return typo.DirectiveKey(scenarioID) }

// ProcessOptions configures an external-process system under test; see
// the fields of internal/proc.Options.
type ProcessOptions = proc.Options

// ProcessSystem returns a System that runs as an external process,
// started and stopped by ConfErr around every injection — the paper's
// deployment model, where the SUT is a real server binary driven through
// scripts (§5.1). Combine it with a Target whose Formats and Tests match
// the hosted program; cmd/sutd hosts the built-in simulators this way.
func ProcessSystem(opts ProcessOptions) (System, error) {
	return proc.New(opts)
}

// BorrowGenerator returns the §2.2 rule-based-error generator: directives
// "borrowed" from another program's configuration (the donor) are
// inserted into the target's configuration, modeling an operator reusing
// the mental model of one system while configuring another. perClass 0
// keeps all (donor directive × insertion point) combinations.
func BorrowGenerator(donor *SystemTarget, seed int64, perClass int) (Generator, error) {
	donorSet := confnode.NewSet()
	files := donor.System.DefaultConfig()
	for name, data := range files {
		f, ok := donor.Target.Formats[name]
		if !ok {
			continue
		}
		root, err := f.Parse(name, data)
		if err != nil {
			return nil, fmt.Errorf("conferr: parsing donor %s: %w", name, err)
		}
		donorSet.Put(name, root)
	}
	return &structural.Borrow{
		Donor:    donorSet,
		PerClass: perClass,
		Seed:     seed,
	}, nil
}

// NewJSONLSink returns a streaming sink writing one self-contained JSON
// object per record to w, tagged with the campaign identity — the
// bounded-memory destination for million-scenario campaigns (`conferr
// matrix -stream-out`).
func NewJSONLSink(w io.Writer, system, generator string) *profile.JSONLSink {
	return profile.NewJSONLSink(w, system, generator)
}

// NewLockedWriter serializes writes to w so the JSONL sinks of
// concurrently running campaigns can share one output file.
func NewLockedWriter(w io.Writer) *profile.LockedWriter {
	return profile.NewLockedWriter(w)
}

// StripDurations wraps a sink so every record's Duration is zeroed
// before the write. Duration is the only run-varying record field, so
// stripped streams from two equivalent runs — cold vs warm-reload, any
// worker count — compare byte-identical (`conferr matrix -no-duration`).
func StripDurations(s Sink) Sink { return profile.StripDurations(s) }

// DiscardSink drops every record while still reporting success — the
// destination for runs whose output is the summary table, not a profile
// (`conferr matrix` without -stream-out). It is shardable, so the
// suite's per-shard sink bypass stays intact.
var DiscardSink Sink = profile.Discard

// JSONLEntry is one decoded JSONL profile line.
type JSONLEntry = profile.JSONLEntry

// LimitGenerator caps gen's faultload at n scenarios; on the streaming
// path generation work past the cap never happens.
func LimitGenerator(gen Generator, n int) Generator { return core.LimitGenerator(gen, n) }

// RepeatGenerator replays gen's faultload rounds times with round-prefixed
// scenario IDs — the scale harness for streaming campaigns.
func RepeatGenerator(gen Generator, rounds int) Generator {
	return core.RepeatGenerator(gen, rounds)
}

// CompareProfiles diffs two profiles of the same faultload by scenario
// ID, classifying shared scenarios as improved (now detected), regressed
// (no longer detected) or unchanged.
func CompareProfiles(before, after *Profile) profile.Comparison {
	return profile.Compare(before, after)
}
