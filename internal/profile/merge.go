package profile

import (
	"bytes"
	"fmt"
	"io"
	"sort"
)

// SeqMerger reassembles sequence-tagged record lines arriving in any
// order — from interleaved shard streams, out-of-order delivery, or
// re-delivery after a retried shard — into one contiguous, gap-checked
// stream. Lines are flushed to the writer in exact sequence order as
// soon as every predecessor has arrived; duplicates (a shard retried
// after partial delivery re-sends its records) are detected by sequence
// number and dropped, with re-deliveries that disagree byte-for-byte
// reported as corruption rather than silently picked between.
//
// The merger is the coordinator-side half of distributed campaigns'
// determinism guarantee: because every record line is rendered by the
// same encoder from the same pure faultload, the merged stream is
// byte-identical to a single-process run of the same campaign. It is not
// concurrency-safe; callers serialize Add.
type SeqMerger struct {
	w       io.Writer
	next    int
	pending map[int][]byte
	dups    int
	flushed int
	line    []byte // scratch for writing an in-order line with its newline
}

// NewSeqMerger returns a merger flushing to w, with start the first
// sequence number expected — non-zero when resuming a campaign whose
// output already holds lines 0..start-1. Lines are added
// without their trailing newline; the merger appends one per flush.
func NewSeqMerger(w io.Writer, start int) *SeqMerger {
	return &SeqMerger{w: w, next: start, pending: make(map[int][]byte)}
}

// Add accepts one record line for the given global sequence number,
// parking it until its predecessors arrive and then flushing the
// contiguous run. The line is copied; callers may reuse the slice. A
// line arriving in order is written straight through, never parked.
func (m *SeqMerger) Add(seq int, line []byte) error {
	if seq < 0 {
		return fmt.Errorf("profile: merge: negative sequence %d", seq)
	}
	if seq < m.next {
		// Already flushed — a retried shard re-delivering its prefix.
		m.dups++
		return nil
	}
	if seq > m.next {
		if prev, ok := m.pending[seq]; ok {
			if !bytes.Equal(prev, line) {
				return fmt.Errorf("profile: merge: sequence %d delivered twice with different content", seq)
			}
			m.dups++
			return nil
		}
		m.pending[seq] = append([]byte(nil), line...)
		return nil
	}
	// One Write per line, as line-oriented writers (a cprof.File over a
	// .cprof path) expect; the copy into m.line keeps the caller's slice untouched.
	m.line = append(append(m.line[:0], line...), '\n')
	out := m.line
	for {
		if _, err := m.w.Write(out); err != nil {
			return fmt.Errorf("profile: merge: writing sequence %d: %w", m.next, err)
		}
		m.next++
		m.flushed++
		l, ok := m.pending[m.next]
		if !ok {
			return nil
		}
		delete(m.pending, m.next)
		out = append(l, '\n')
	}
}

// Front returns the next sequence number the merger is waiting for; every
// sequence below it has been flushed, in order, so the output holds
// exactly records 0..Front()-1 once it is flushed.
func (m *SeqMerger) Front() int { return m.next }

// Duplicates returns how many re-delivered lines were dropped.
func (m *SeqMerger) Duplicates() int { return m.dups }

// GapCheck verifies the merged stream is exactly sequences 0..total-1
// with nothing parked: the final integrity gate of a distributed
// campaign. The error names the first missing range, so an operator (or
// a resume run) knows precisely which sequences never arrived.
func (m *SeqMerger) GapCheck(total int) error {
	if m.next == total && len(m.pending) == 0 {
		return nil
	}
	if len(m.pending) == 0 {
		if m.next < total {
			return fmt.Errorf("profile: merge: gap: sequences %d..%d missing", m.next, total-1)
		}
		return fmt.Errorf("profile: merge: %d sequences flushed past the expected total %d", m.next, total)
	}
	parked := make([]int, 0, len(m.pending))
	for s := range m.pending {
		parked = append(parked, s)
	}
	sort.Ints(parked)
	return fmt.Errorf("profile: merge: gap: sequences %d..%d missing (%d records parked behind it, first %d)",
		m.next, parked[0]-1, len(parked), parked[0])
}
