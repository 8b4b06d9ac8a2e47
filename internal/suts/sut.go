// Package suts defines the contract between the ConfErr engine and a
// system under test (SUT), and hosts the simulated targets in its
// subpackages.
//
// The paper drives real server binaries (MySQL, Postgres, Apache, BIND,
// djbdns) via start/stop scripts. This reproduction substitutes simulated
// SUTs — real network servers whose configuration parsers faithfully model
// the documented behaviours of the originals (see DESIGN.md §2) — plus an
// external-process path via internal/proc and cmd/sutd.
//
// The simulators share one chassis: FreePort picks the default port of
// New(0); Net holds the transport of the ones that accept SetTransport
// (nginx, httpd, postgres, redisd); and httpprobe.Listeners is the web
// servers' set of ports.
package suts

import (
	"errors"
	"fmt"
	"time"
)

// Files maps logical configuration file names to their serialized content,
// as delivered to a SUT at startup. The content slices are read-only: the
// engine's incremental pipeline hands the same cached baseline bytes to
// every experiment of a campaign (and, under parallelism, to every
// worker), so a SUT that needs to rewrite file content must copy it first.
type Files map[string][]byte

// System is a system under test. Implementations must be restartable: the
// engine calls Start/Stop once per injection experiment.
type System interface {
	// Name identifies the SUT (e.g. "mysql-sim").
	Name() string
	// DefaultConfig returns the initial (valid) configuration files the
	// campaign mutates — the equivalent of the default files that ship
	// with the system (paper §5.1).
	DefaultConfig() Files
	// Start parses the given configuration and brings the system up. A
	// returned error means the SUT detected a problem at startup; the
	// error text is recorded in the resilience profile. The files' byte
	// slices are shared with other experiments and must not be mutated
	// (see Files). The map itself is engine scratch reused between
	// experiments: retain the byte slices if needed, never the map.
	Start(files Files) error
	// Stop shuts the system down and releases its resources. It must be
	// safe to call after a failed Start.
	Stop() error
}

// Addressable is implemented by SUTs that serve a network endpoint;
// functional tests use Addr to reach the running system.
type Addressable interface {
	// Addr returns the listening address ("host:port") of the running
	// system. Only valid between a successful Start and Stop.
	Addr() string
}

// Reloader is an optional capability: a SUT that can swap its
// configuration on a warm, already-running instance — the `nginx -s
// reload` / SIGHUP idiom. The reload lifecycle (internal/sutpool) uses
// it to keep each worker's instance warm instead of paying one cold
// start/stop cycle per injection experiment.
//
// Reload follows the same error taxonomy as Start: a *StartupError means
// the SUT itself rejected the new configuration, and its text must be
// byte-identical to what Start would report for the same files — the
// resilience profile must not depend on the lifecycle mode. After a
// rejected reload the instance keeps serving its previous configuration
// and stays warm. Any other error means the reload wedged the instance;
// the worker's sutpool.Instance quarantines it and falls back to a cold
// restart.
type Reloader interface {
	// Reload applies a new configuration to the running system. Same
	// Files sharing contract as System.Start.
	Reload(files Files) error
}

// DirtyReloader is Reloader plus a dirty-file set: ReloadDirty(files,
// dirty) must behave exactly as Reload(files), and the four warm
// simulators (nginx, httpd, postgres, redisd) implement it as Reload,
// ignoring dirty. The engine hands a SUT bytes only, so nothing in the
// program calls it. It stays declared because the benchmark's
// capability table (bench/wrap.go) lists it.
type DirtyReloader interface {
	Reloader
	// ReloadDirty applies files like Reload, where every file not named
	// in dirty is byte-identical to the campaign baseline.
	ReloadDirty(files Files, dirty []string) error
}

// DirtyStarter is Start plus a dirty-file set, the shape of a SUT
// adapter that forwards one toward a DirtyReloader. Nothing in the
// program implements or checks for it. It stays declared because the
// benchmark's capability table (bench/wrap.go) lists it.
type DirtyStarter interface {
	// Start plus the dirty-file set, which has the same meaning as in
	// DirtyReloader.
	StartDirty(files Files, dirty []string) error
}

// Validator is an optional capability: a SUT that can parse and check a
// configuration without binding listeners or serving — the `nginx -t` /
// `postgres -C` idiom. It detects exactly the startup-time rejections
// (returned as *StartupError, byte-identical to Start's), but a nil
// return only means "would parse": runtime-only failures (port already
// bound) and everything functional tests would catch are invisible to
// it, so validate-only campaigns trade outcome fidelity for speed.
type Validator interface {
	// Validate checks the configuration without starting the system.
	// Same Files sharing contract as System.Start.
	Validate(files Files) error
}

// HealthChecker is an optional capability used by the reload lifecycle
// after every experiment to decide whether a warm instance can serve the
// next one or must be quarantined and cold-restarted.
type HealthChecker interface {
	// Health returns nil when the running system is still serving.
	Health() error
}

// StartupError is returned by System.Start when the SUT's own
// configuration parsing or validation rejects the configuration — the
// "detected by system at startup" outcome.
type StartupError struct {
	// System is the SUT name.
	System string
	// Msg is the SUT's complaint, recorded in the profile.
	Msg string
}

// Error implements the error interface.
func (e *StartupError) Error() string {
	return fmt.Sprintf("%s: %s", e.System, e.Msg)
}

// IsStartupError reports whether err is a SUT startup rejection.
func IsStartupError(err error) bool {
	var se *StartupError
	return errors.As(err, &se)
}

// PhaseTimeoutError is returned by the engine's phase watchdog when one
// SUT lifecycle phase (start, reload, probe, stop) exceeds its deadline.
// It is an infrastructure failure, not a SUT verdict: the experiment is
// recorded with the InfrastructureError outcome and the campaign
// continues. The wedged instance is quarantined; the stuck call keeps
// running on an abandoned goroutine until it returns (goroutines cannot
// be killed), at which point the instance is torn down.
type PhaseTimeoutError struct {
	// System is the SUT name.
	System string
	// Phase names the phase that timed out: "start", "probe:<test>",
	// "stop", or "release".
	Phase string
	// Timeout is the deadline that expired — the smaller of the phase
	// budget and what remained of the experiment budget.
	Timeout time.Duration
	// Elapsed is how long the phase had been running when it was
	// abandoned.
	Elapsed time.Duration
}

// Error implements the error interface.
func (e *PhaseTimeoutError) Error() string {
	return fmt.Sprintf("%s: watchdog: %s phase exceeded %v deadline (elapsed %v)",
		e.System, e.Phase, e.Timeout, e.Elapsed.Round(time.Millisecond))
}

// IsPhaseTimeout reports whether err is a watchdog phase timeout.
func IsPhaseTimeout(err error) bool {
	var pe *PhaseTimeoutError
	return errors.As(err, &pe)
}

// PhasePanicError is produced by the engine's panic containment when a
// SUT phase or functional test panics. Like PhaseTimeoutError it is an
// infrastructure failure: recorded, never fatal to the campaign.
type PhasePanicError struct {
	// System is the SUT name.
	System string
	// Phase names the panicking phase.
	Phase string
	// Value is the recovered panic value, rendered with %v.
	Value string
	// Stack is the goroutine stack at the point of the panic.
	Stack string
}

// Error implements the error interface.
func (e *PhasePanicError) Error() string {
	return fmt.Sprintf("%s: panic in %s phase: %s\n%s", e.System, e.Phase, e.Value, e.Stack)
}

// IsPhasePanic reports whether err is a recovered SUT-phase panic.
func IsPhasePanic(err error) bool {
	var pe *PhasePanicError
	return errors.As(err, &pe)
}

// Test is a functional test run against a started SUT — the equivalent of
// the paper's diagnostic scripts ("akin to what an administrator might do
// to check that a system is OK", §5.1).
type Test struct {
	// Name identifies the test in the profile.
	Name string
	// Run performs the check against the running SUT and returns an error
	// when the system misbehaves.
	Run func() error
}
