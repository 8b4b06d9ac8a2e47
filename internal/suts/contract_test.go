package suts_test

import (
	"errors"
	"sort"
	"testing"

	conferr "conferr"
	"conferr/internal/suts"
)

// This file pins the System contract for every SUT in the registry —
// the invariants the engine and the SUT lifecycles lean on. Each
// registered target must tolerate, on a single instance:
//
//   - Stop before any Start
//   - Stop after a failed Start
//   - double Stop
//   - a full restart (Start/Stop/Start/Stop)
//
// and, where the optional capabilities are implemented, Reload,
// ReloadDirty and Validate must report startup rejections
// byte-identically to Start, and a stopped system must have no address
// and fail its health check.

// fileNames returns the names of files, sorted.
func fileNames(files suts.Files) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// garbageConfig corrupts the first (sorted) default file so that any
// real parser rejects it; systems that happen to tolerate it just skip
// the rejection-specific assertions.
func garbageConfig(sys suts.System) suts.Files {
	def := sys.DefaultConfig()
	names := fileNames(def)
	files := make(suts.Files, len(def))
	for name, data := range def {
		files[name] = data
	}
	if len(names) > 0 {
		files[names[0]] = []byte("conferr contract-test garbage ::: {{{\n")
	}
	return files
}

func TestRegisteredSystemsHonorContract(t *testing.T) {
	names := conferr.RegisteredTargets()
	if len(names) == 0 {
		t.Fatal("no registered targets")
	}
	sawRejection := false
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			factory, err := conferr.LookupTarget(name)
			if err != nil {
				t.Fatal(err)
			}
			st, err := factory(0)
			if err != nil {
				t.Fatalf("building target: %v", err)
			}
			sys := st.System
			def := sys.DefaultConfig()
			if len(def) == 0 {
				t.Fatal("empty default config")
			}

			// Stop before any Start must be a safe no-op.
			if err := sys.Stop(); err != nil {
				t.Errorf("Stop before Start: %v", err)
			}

			// A failed Start must leave the instance stoppable and
			// restartable.
			bad := garbageConfig(sys)
			startErr := sys.Start(bad)
			if startErr != nil {
				if !suts.IsStartupError(startErr) {
					t.Errorf("Start(garbage) = %v, want *StartupError", startErr)
				}
				if err := sys.Stop(); err != nil {
					t.Errorf("Stop after failed Start: %v", err)
				}
			} else if err := sys.Stop(); err != nil {
				t.Errorf("Stop after Start(garbage): %v", err)
			}

			// Restart on the same instance, then double Stop.
			for round := 0; round < 2; round++ {
				if err := sys.Start(def); err != nil {
					t.Fatalf("Start(default) round %d: %v", round, err)
				}
				if err := sys.Stop(); err != nil {
					t.Fatalf("Stop round %d: %v", round, err)
				}
			}
			if err := sys.Stop(); err != nil {
				t.Errorf("double Stop: %v", err)
			}
			stopped := func(when string) {
				t.Helper()
				if a, ok := sys.(suts.Addressable); ok && a.Addr() != "" {
					t.Errorf("Addr %s = %q, want empty", when, a.Addr())
				}
				if hc, ok := sys.(suts.HealthChecker); ok && hc.Health() == nil {
					t.Errorf("Health %s = nil, want an error", when)
				}
			}
			stopped("after Stop")

			// Optional capabilities: rejections must be byte-identical
			// to Start's for the same files.
			if startErr != nil && suts.IsStartupError(startErr) {
				sawRejection = true
				if v, ok := sys.(suts.Validator); ok {
					verr := v.Validate(bad)
					if verr == nil || verr.Error() != startErr.Error() {
						t.Errorf("Validate(garbage) = %v, want Start's %v", verr, startErr)
					}
					if err := v.Validate(def); err != nil {
						t.Errorf("Validate(default) = %v, want nil", err)
					}
				}
				if r, ok := sys.(suts.Reloader); ok {
					if err := sys.Start(def); err != nil {
						t.Fatalf("Start before Reload: %v", err)
					}
					rerr := r.Reload(bad)
					if rerr == nil || rerr.Error() != startErr.Error() {
						t.Errorf("Reload(garbage) = %v, want Start's %v", rerr, startErr)
					}
					var se *suts.StartupError
					if errors.As(rerr, &se) {
						// A rejected reload keeps the instance warm on its
						// previous configuration.
						if hc, ok := sys.(suts.HealthChecker); ok {
							if err := hc.Health(); err != nil {
								t.Errorf("Health after rejected Reload: %v", err)
							}
						}
						if err := r.Reload(def); err != nil {
							t.Errorf("Reload(default) after rejection: %v", err)
						}
					}
					if dr, ok := sys.(suts.DirtyReloader); ok {
						// Clean or dirty, the garbage is rejected in
						// Start's words, and never memoized.
						for _, dirty := range [][]string{nil, fileNames(def)} {
							derr := dr.ReloadDirty(bad, dirty)
							if derr == nil || derr.Error() != startErr.Error() {
								t.Errorf("ReloadDirty(garbage, %q) = %v, want Start's %v", dirty, derr, startErr)
							}
						}
						// A memo miss, then a memo hit.
						for i := 1; i <= 2; i++ {
							if err := dr.ReloadDirty(def, nil); err != nil {
								t.Errorf("ReloadDirty(default, nil) #%d: %v", i, err)
							}
						}
					}
					if err := sys.Stop(); err != nil {
						t.Errorf("Stop after Reload round: %v", err)
					}
					stopped("after the Reload round")
				}
			}
		})
	}
	if !sawRejection {
		t.Error("no registered system rejected the garbage config — contract test lost its teeth")
	}
}
