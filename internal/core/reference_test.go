package core

import (
	"errors"
	"fmt"
	"time"

	"conferr/internal/confnode"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/suts"
	"conferr/internal/view"
)

// runOneReference is the pre-incremental engine — deep-clone the whole
// view, full Backward, re-serialize every file. It is runOne's
// behavioural reference: equivalence tests prove runOne produces
// byte-identical profiles, and the benchmark family measures the win
// against it.
//
// The one case where the two pipelines differ: runOne folds each
// experiment onto the baseline round trip (faultload.baseSys), this one
// onto the parsed configuration (sysSet). A word-view scenario that drops
// a line, or moves its provenance, leaves that line's directive at its
// round-tripped value in runOne and at its parsed value here. The two
// differ only for a value the view normalizes, and no built-in generator
// changes lines that way.
func runOneReference(t *Target, sc scenario.Scenario, v view.View, viewSet, sysSet *confnode.Set) (profile.Record, error) {
	start := time.Now()
	rec := profile.Record{
		ScenarioID:  sc.ID,
		Class:       sc.Class,
		Description: sc.Description,
	}
	finish := func(o profile.Outcome, detail string) profile.Record {
		rec.Outcome = o
		rec.Detail = detail
		rec.Duration = time.Since(start)
		return rec
	}

	// 1. Mutate a fresh clone of the view.
	mutated := viewSet.Clone()
	if err := sc.Apply(mutated); err != nil {
		if errors.Is(err, scenario.ErrNotApplicable) {
			return finish(profile.NotApplicable, err.Error()), nil
		}
		return finish(profile.NotApplicable, err.Error()), err
	}

	// 2. Map back to the system representation.
	mutatedSys, err := v.Backward(mutated, sysSet)
	if err != nil {
		if errors.Is(err, view.ErrNotExpressible) {
			return finish(profile.NotExpressible, err.Error()), nil
		}
		return finish(profile.NotApplicable, err.Error()), err
	}

	// 3. Serialize to native file formats.
	files := make(suts.Files, mutatedSys.Len())
	for _, name := range mutatedSys.Names() {
		f := t.Formats[name]
		if f == nil {
			return finish(profile.NotExpressible,
				fmt.Sprintf("no format registered for file %q", name)), nil
		}
		data, serr := f.Serialize(mutatedSys.Get(name))
		if serr != nil {
			return finish(profile.NotExpressible, serr.Error()), nil
		}
		files[name] = data
	}

	return runOnFiles(t, files, finish)
}
