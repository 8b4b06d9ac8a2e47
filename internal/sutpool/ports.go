package sutpool

import (
	"errors"
	"strconv"
	"strings"
	"time"

	"conferr/internal/suts"
)

// This file is the port remap of parallel campaigns.
//
// The faultload of a campaign is generated once, from the primary target,
// so every mutated configuration embeds the primary's port. If workers
// started their SUTs on those bytes verbatim they would all contend for
// the one port; if they ran on private ports the mutated bytes, error
// messages and functional-test dials would differ from the sequential run
// and the profile would no longer be deterministic. The remap squares the
// circle: each worker SUT runs on its own port, the primary port is
// rewritten to the worker's in the config bytes on the way in, and the
// worker's port is rewritten back to the primary's in every error message
// on the way out. Typo'd port values are left untouched in both
// directions, so port-fault scenarios keep their exact sequential
// behaviour.

// bindRetry bounds how long a worker waits out another worker holding a
// (typo'd) port it needs. Experiments against the simulators complete in
// well under a millisecond, so a few milliseconds of budget covers deep
// pile-ups while keeping a genuinely occupied port's failure prompt.
const (
	bindRetries = 100
	bindBackoff = 2 * time.Millisecond
)

// MapPort makes the instance run its SUT on port to while presenting
// port from — the primary's — to the engine. With from == to, or either
// 0, nothing is rewritten. Either way Start then waits out transient bind
// collisions with the SUTs of sibling workers, which share the port
// space.
func (i *Instance) MapPort(from, to int) {
	i.tries = bindRetries
	if from != 0 && to != 0 && from != to {
		i.from, i.to = strconv.Itoa(from), strconv.Itoa(to)
	}
}

// remapKey identifies an input slice by backing array and length.
type remapKey struct {
	p *byte
	n int
}

// remapMemoCap bounds the memo: comfortably above any real
// configuration's file count even after early scenarios' dirty-file
// slices claim slots, small enough that the pinned bytes stay cheap.
const remapMemoCap = 256

// remap rewrites the primary port to the worker's in one file's bytes,
// memoizing per input slice. The engine's incremental pipeline hands
// every clean file's cached baseline bytes to Start unchanged scenario
// after scenario, so keying on the slice identity turns their rewrite
// into a lookup — and hands the SUT the same output slice each time,
// which downstream baseline-parse memos (DirtyReloader) key on. Entries
// are never evicted: per-scenario dirty-file slices that land in the
// memo stay there (bounded by the cap; once it is full, further misses
// simply recompute), and keys hold their backing arrays alive, so an
// address can never be recycled for different content while its entry
// exists.
func (i *Instance) remap(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	k := remapKey{&data[0], len(data)}
	if out, ok := i.memo[k]; ok {
		return out
	}
	out := []byte(replaceNumber(string(data), i.from, i.to))
	if i.memo == nil {
		i.memo = make(map[remapKey][]byte, remapMemoCap)
	}
	if len(i.memo) < remapMemoCap {
		i.memo[k] = out
	}
	return out
}

// UnmapError rewrites the worker port back to the primary's in err's
// message, keeping err in the chain: a *suts.StartupError stays one,
// anything else is reworded around the original. Without a remap (see
// MapPort) err is returned as it is.
func (i *Instance) UnmapError(err error) error {
	if err == nil || i.from == "" {
		return err
	}
	var se *suts.StartupError
	if errors.As(err, &se) {
		return &suts.StartupError{System: se.System, Msg: replaceNumber(se.Msg, i.to, i.from)}
	}
	return &remappedError{msg: replaceNumber(err.Error(), i.to, i.from), cause: err}
}

// remappedError rewords an error while keeping the original in the chain.
type remappedError struct {
	msg   string
	cause error
}

func (e *remappedError) Error() string { return e.msg }
func (e *remappedError) Unwrap() error { return e.cause }

// replaceNumber replaces standalone decimal occurrences of from with to:
// matches are rejected when flanked by another digit, so a port embedded
// in a larger number (for example a typo'd duplication of its digits)
// stays untouched.
func replaceNumber(s, from, to string) string {
	if from == "" || from == to {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		j := strings.Index(s[i:], from)
		if j < 0 {
			b.WriteString(s[i:])
			break
		}
		j += i
		end := j + len(from)
		digitBefore := j > 0 && s[j-1] >= '0' && s[j-1] <= '9'
		digitAfter := end < len(s) && s[end] >= '0' && s[end] <= '9'
		b.WriteString(s[i:j])
		if digitBefore || digitAfter {
			b.WriteString(from)
		} else {
			b.WriteString(to)
		}
		i = end
	}
	return b.String()
}
