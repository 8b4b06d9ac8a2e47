package conferr

import (
	"conferr/internal/sutpool"
	"conferr/internal/suts"
)

// This file holds the facade's half of the port remap that keeps
// parallel campaigns deterministic. Every worker SUT runs on its own
// port while the faultload's mutated bytes embed the primary's;
// sutpool.Instance.MapPort rewrites the configuration bytes and the
// start errors, and remapTests below has the Instance rewrite what the
// worker's functional tests report, since they dial the worker's own
// port.

// defaultPorter is implemented by every built-in simulator.
type defaultPorter interface {
	DefaultPort() int
}

// portOf is the port a simulator listens on, 0 for a system without one.
func portOf(sys suts.System) int {
	if dp, ok := sys.(defaultPorter); ok {
		return dp.DefaultPort()
	}
	return 0
}

// remapTests rewrites the worker's port back to the primary's in
// functional-test failure messages, keeping DetectedByTest details
// byte-identical to the sequential run.
func remapTests(tests []suts.Test, inst *sutpool.Instance) []suts.Test {
	out := make([]suts.Test, len(tests))
	for i, t := range tests {
		run := t.Run
		out[i] = suts.Test{Name: t.Name, Run: func() error { return inst.UnmapError(run()) }}
	}
	return out
}
