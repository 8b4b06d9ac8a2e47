// Package sutpool drives each campaign worker's SUT through a lifecycle,
// so a worker can keep one SUT warm across experiments instead of
// cold-starting one per injection: BENCH_5's 1M-scenario nginx run spent
// >95% of its wall time starting and tearing down simulated servers
// while the injection engine itself sustained 165k exp/s. The name is
// historical; there is no pool. Each worker owns its instance for one
// run, and the engine releases it when the run ends.
//
// The package has three pieces. Mode selects the lifecycle an experiment
// drives: Cold (the paper's start/stop-per-experiment engine), Reload
// (warm instances re-configured via suts.Reloader, the `nginx -s reload`
// idiom), and Validate (parse/check-only via suts.Validator, the
// `nginx -t` idiom). Instance is the engine's one adapter to a worker's
// SUT: it drives the selected mode, with cold-start fallback when the
// capability is missing and quarantine-plus-restart when a reload
// wedges, and holds the loopback host a kernel-TCP worker serves the
// primary's port on (LeaseHost). Counters tally what the instances of a
// run did.
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
