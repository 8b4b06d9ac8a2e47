package sutpool

import (
	"fmt"
	"sync/atomic"
)

// Counters tally lifecycle events across every instance wired to them —
// typically one set per run or matrix, shared by all workers. All fields
// are atomics; the zero value is ready to use.
type Counters struct {
	// ColdStarts counts full Start calls on the underlying SUT (cold
	// mode, fallbacks, and recovery restarts alike).
	ColdStarts atomic.Int64
	// Reloads counts warm configuration swaps via suts.Reloader.
	Reloads atomic.Int64
	// Validates counts parse-only checks via suts.Validator.
	Validates atomic.Int64
	// Restarts counts quarantine recoveries: a wedged or unhealthy warm
	// instance torn down and cold-started.
	Restarts atomic.Int64
	// HealthFailures counts warm instances that failed their
	// between-experiments health check.
	HealthFailures atomic.Int64
	// Quarantines counts instances condemned by the engine's phase
	// watchdog: a phase deadline expired, the wedged instance was marked
	// for cold restart and its teardown deferred to whenever the stuck
	// call returns.
	Quarantines atomic.Int64
}

// Snapshot is a plain-integer copy of Counters, safe to compare, encode
// and print.
type Snapshot struct {
	ColdStarts     int64 `json:"cold_starts"`
	Reloads        int64 `json:"reloads"`
	Validates      int64 `json:"validates"`
	Restarts       int64 `json:"restarts"`
	HealthFailures int64 `json:"health_failures"`
	Quarantines    int64 `json:"quarantines"`
}

// Snapshot returns the current values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		ColdStarts:     c.ColdStarts.Load(),
		Reloads:        c.Reloads.Load(),
		Validates:      c.Validates.Load(),
		Restarts:       c.Restarts.Load(),
		HealthFailures: c.HealthFailures.Load(),
		Quarantines:    c.Quarantines.Load(),
	}
}

// String formats the snapshot for CLI and bench output.
func (s Snapshot) String() string {
	return fmt.Sprintf("cold-starts=%d reloads=%d validates=%d restarts=%d health-failures=%d quarantines=%d",
		s.ColdStarts, s.Reloads, s.Validates, s.Restarts, s.HealthFailures, s.Quarantines)
}
