package suts

import (
	"slices"
	"sync"
)

// ParseMemo memoizes the parsed form of one configuration file across
// warm reloads, keyed by the identity — pointer and length — of the raw
// byte slice rather than its content, so a hit costs two comparisons
// instead of a hash of the whole file.
//
// Identity keying is only sound for slices that are both immutable and
// kept alive: the engine's campaign-baseline bytes qualify (the
// incremental pipeline restores them after every experiment and holds
// them for the campaign's lifetime), per-experiment scratch buffers do
// not (same address, different content on the next experiment). The
// memo therefore retains a reference to the keyed slice itself: while
// the entry lives, the allocator cannot recycle its address, so a
// matching (pointer, length) pair is necessarily the same slice with
// the same content. Check only stores slices the engine marked clean
// (see DirtyReloader).
//
// One entry suffices — a SUT instance serves one campaign at a time,
// and a campaign has one baseline per file — and keeps the memo from
// pinning dead campaigns' bytes beyond the first reload of the next.
type ParseMemo[T any] struct {
	mu   sync.Mutex
	data []byte
	val  T
	ok   bool
}

// Check is the ReloadDirty rule: when files[name] is present and not
// named in dirty, its bytes are the campaign baseline, so the memoized
// parse is reused, and a successful check of it is memoized. Otherwise
// check runs on files unmemoized, exactly as Reload would.
func (m *ParseMemo[T]) Check(files Files, dirty []string, name string, check func(Files) (T, error)) (T, error) {
	data, ok := files[name]
	if !ok || slices.Contains(dirty, name) {
		return check(files)
	}
	m.mu.Lock()
	hit := m.ok && len(data) == len(m.data) && (len(data) == 0 || &data[0] == &m.data[0])
	val := m.val
	m.mu.Unlock()
	if hit {
		return val, nil
	}
	val, err := check(files)
	if err == nil {
		m.mu.Lock()
		m.data, m.val, m.ok = data, val, true
		m.mu.Unlock()
	}
	return val, err
}
