// Package sutpool owns SUT instances across experiments instead of
// cold-starting one per injection. It is the layer ROADMAP item 1 calls
// for: BENCH_5's 1M-scenario nginx run spends >95% of its wall time
// starting and tearing down simulated servers while the injection engine
// itself sustains 165k exp/s, so campaigns are SUT-bound, not
// engine-bound.
//
// The package has three pieces. Mode selects the lifecycle an experiment
// drives: Cold (the paper's start/stop-per-experiment engine), Reload
// (warm instances re-configured via suts.Reloader, the `nginx -s reload`
// idiom), and Validate (parse/check-only via suts.Validator, the
// `nginx -t` idiom). Instance is the engine's one adapter to a worker's
// SUT: it drives the selected mode, with cold-start fallback when the
// capability is missing and quarantine-plus-restart when a reload
// wedges, and remaps the primary port for parallel workers. Pool hands
// leased instances to campaign workers and takes them back
// health-checked between runs.
package sutpool

import "fmt"

// Mode selects how the engine drives a SUT through one experiment.
type Mode uint8

const (
	// Cold is the paper's engine: Start and Stop once per experiment.
	Cold Mode = iota
	// Reload keeps instances warm and swaps configurations via
	// suts.Reloader, falling back to Cold for SUTs without it.
	Reload
	// Validate checks configurations via suts.Validator without serving;
	// functional tests are skipped. Falls back to Cold for SUTs without
	// it.
	Validate
)

// String returns the mode's flag spelling.
func (m Mode) String() string {
	switch m {
	case Cold:
		return "cold"
	case Reload:
		return "reload"
	case Validate:
		return "validate"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode resolves a -lifecycle flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "cold":
		return Cold, nil
	case "reload":
		return Reload, nil
	case "validate":
		return Validate, nil
	}
	return Cold, fmt.Errorf("sutpool: unknown lifecycle %q (want cold, reload or validate)", s)
}
