package profile

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func mergeLine(seq int) []byte {
	return []byte(fmt.Sprintf(`{"seq":%d}`, seq))
}

// TestSeqMergerOrdersAnyArrival: any arrival order flushes the same
// contiguous stream.
func TestSeqMergerOrdersAnyArrival(t *testing.T) {
	const total = 7
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 5, 2, 4},
	}
	var want bytes.Buffer
	for i := 0; i < total; i++ {
		want.Write(append(mergeLine(i), '\n'))
	}
	for _, order := range orders {
		var out bytes.Buffer
		m := NewSeqMerger(&out, 0)
		for _, seq := range order {
			if err := m.Add(seq, mergeLine(seq)); err != nil {
				t.Fatalf("order %v: add %d: %v", order, seq, err)
			}
		}
		if err := m.GapCheck(total); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if out.String() != want.String() {
			t.Fatalf("order %v: merged stream diverges:\n%s", order, out.String())
		}
		if m.Flushed() != total || m.Front() != total || m.PendingCount() != 0 {
			t.Fatalf("order %v: flushed=%d front=%d pending=%d", order, m.Flushed(), m.Front(), m.PendingCount())
		}
	}
}

// TestSeqMergerDedupsRedelivery: re-delivered lines — both already
// flushed and still parked — are dropped and counted, while a parked
// re-delivery with different bytes is corruption, not a tiebreak.
func TestSeqMergerDedupsRedelivery(t *testing.T) {
	var out bytes.Buffer
	m := NewSeqMerger(&out, 0)
	for _, seq := range []int{0, 1, 3} {
		if err := m.Add(seq, mergeLine(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Seq 1 is flushed, seq 3 parked: both re-deliveries are dropped.
	if err := m.Add(1, mergeLine(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(3, mergeLine(3)); err != nil {
		t.Fatal(err)
	}
	if m.Duplicates() != 2 {
		t.Fatalf("duplicates = %d, want 2", m.Duplicates())
	}
	if err := m.Add(3, []byte(`{"seq":3,"different":true}`)); err == nil {
		t.Fatal("conflicting re-delivery of a parked line accepted")
	}
	if err := m.Add(2, mergeLine(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.GapCheck(4); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n"); got != 4 {
		t.Fatalf("output holds %d lines, want 4", got)
	}
}

// TestSeqMergerResumeOffset: a merger started at a resume front treats
// below-front lines as duplicates and completes the remainder.
func TestSeqMergerResumeOffset(t *testing.T) {
	var out bytes.Buffer
	m := NewSeqMerger(&out, 5)
	if err := m.Add(3, mergeLine(3)); err != nil {
		t.Fatal(err)
	}
	if m.Duplicates() != 1 {
		t.Fatalf("below-front line not counted as duplicate")
	}
	for seq := 7; seq >= 5; seq-- {
		if err := m.Add(seq, mergeLine(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.GapCheck(8); err != nil {
		t.Fatal(err)
	}
	if m.Flushed() != 3 {
		t.Fatalf("flushed = %d, want 3 (only the missing range)", m.Flushed())
	}
	want := string(mergeLine(5)) + "\n" + string(mergeLine(6)) + "\n" + string(mergeLine(7)) + "\n"
	if out.String() != want {
		t.Fatalf("resumed stream diverges:\n%s", out.String())
	}
}

// TestSeqMergerGapCheckNamesRange: the integrity error names the first
// missing range so a resume knows what to fetch.
func TestSeqMergerGapCheckNamesRange(t *testing.T) {
	var out bytes.Buffer
	m := NewSeqMerger(&out, 0)
	for _, seq := range []int{0, 1, 5, 6} {
		if err := m.Add(seq, mergeLine(seq)); err != nil {
			t.Fatal(err)
		}
	}
	err := m.GapCheck(7)
	if err == nil {
		t.Fatal("gap not reported")
	}
	if !strings.Contains(err.Error(), "2..4") {
		t.Fatalf("gap error does not name the missing range 2..4: %v", err)
	}
	// A clean but short stream reports the tail range.
	var out2 bytes.Buffer
	m2 := NewSeqMerger(&out2, 0)
	_ = m2.Add(0, mergeLine(0))
	if err := m2.GapCheck(3); err == nil || !strings.Contains(err.Error(), "1..2") {
		t.Fatalf("tail gap error: %v", err)
	}
}

// TestSeqMergerCopiesLines: callers may reuse their line buffer between
// Adds.
func TestSeqMergerCopiesLines(t *testing.T) {
	var out bytes.Buffer
	m := NewSeqMerger(&out, 0)
	buf := append([]byte(nil), mergeLine(1)...)
	if err := m.Add(1, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte(`{"seq":9}`))
	if err := m.Add(0, mergeLine(0)); err != nil {
		t.Fatal(err)
	}
	want := string(mergeLine(0)) + "\n" + string(mergeLine(1)) + "\n"
	if out.String() != want {
		t.Fatalf("parked line was not copied:\n%s", out.String())
	}
}

// TestSeqMergerInOrderAddAllocs: a line arriving in order is written
// straight through, never parked, so a warm merger allocates nothing
// for it.
func TestSeqMergerInOrderAddAllocs(t *testing.T) {
	m := NewSeqMerger(io.Discard, 0)
	line := mergeLine(123456)
	seq := 0
	add := func() {
		if err := m.Add(seq, line); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	add()
	if allocs := testing.AllocsPerRun(1000, add); allocs != 0 {
		t.Fatalf("in-order Add allocates %.1f times, want 0", allocs)
	}
	if m.PendingCount() != 0 || m.Front() != seq {
		t.Fatalf("pending=%d front=%d, want 0 and %d", m.PendingCount(), m.Front(), seq)
	}
}

// TestSeqMergerWriteThroughKeepsCallerSlice: the in-order write-through
// neither writes into nor retains the caller's slice, which may alias a
// reader's buffer that is overwritten right after Add returns.
func TestSeqMergerWriteThroughKeepsCallerSlice(t *testing.T) {
	var out bytes.Buffer
	m := NewSeqMerger(&out, 0)
	buf := make([]byte, 0, 64)
	buf = append(buf, mergeLine(0)...)
	spare := buf[len(buf):cap(buf)]
	for i := range spare {
		spare[i] = 'x'
	}
	if err := m.Add(0, buf); err != nil {
		t.Fatal(err)
	}
	if spare[0] != 'x' {
		t.Fatal("Add appended into the caller's slice")
	}
	copy(buf, []byte(`{"seq":9}`))
	if err := m.Add(1, mergeLine(1)); err != nil {
		t.Fatal(err)
	}
	want := string(mergeLine(0)) + "\n" + string(mergeLine(1)) + "\n"
	if out.String() != want {
		t.Fatalf("merged stream = %q, want %q", out.String(), want)
	}
}

// Flushed returns how many lines this merger has written (excluding any
// pre-existing prefix accounted by the start offset).
func (m *SeqMerger) Flushed() int { return m.flushed }

// PendingCount returns how many lines are parked past a gap.
func (m *SeqMerger) PendingCount() int { return len(m.pending) }
