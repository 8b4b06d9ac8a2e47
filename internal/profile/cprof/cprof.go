// Package cprof implements the compact binary profile format — the
// fleet-scale counterpart of the JSONL stream. A `.cprof` file carries
// the same entries as a JSON Lines profile (campaign identity, sequence
// number, record) at a fraction of the bytes and decode cost: records
// are grouped into frames of ~4k, each frame dictionary-compresses its
// highly repetitive string fields, delta-encodes sequence numbers and
// durations as varints, and flate-compresses the result. A frame index
// in the file trailer enables parallel scans and seek-to-sequence
// without touching the frames in between.
//
// # File layout
//
//	file    = magic frame* [index trailer]
//	magic   = "cprof\x01"                      (6 bytes)
//	frame   = 0x01 preamble payload
//	index   = 0x02 campaign-dict frame-table   (see index.go)
//	trailer = u64le index-offset, u32le index-CRC32C, "cIdx"  (16 bytes)
//
// The index is optional on read: frames are self-delimiting, so a file
// cut off before Close (a crashed writer) still scans sequentially, and
// the index can be rebuilt from the frame preambles without inflating a
// single payload.
//
// # Frame layout
//
// The preamble is uncompressed so scanners and index rebuilds can walk
// frames without inflating them:
//
//	preamble = str system, str generator       (str = uvarint len + bytes)
//	           uvarint count                   (records in the frame, > 0)
//	           uvarint firstSeq, lastSeq
//	           uvarint rawLen, compLen         (payload sizes)
//	           u32le   CRC32C(compressed payload)
//	payload  = flate(rawLen bytes), compLen bytes on disk
//
// The payload opens with the frame's two string dictionaries and then
// one row per record:
//
//	payload  = dict(class) dict(detail) row*
//	dict     = uvarint n, n × str
//	row      = uvarint seqDelta                (vs previous row; first row 0)
//	           uvarint outcome
//	           uvarint classIdx
//	           uvarint idPrefix                (scenario-ID bytes shared with
//	                                            the previous row's ID)
//	           str     idSuffix
//	           str     description
//	           uvarint detailIdx
//	           varint  durDelta                (zigzag, vs previous row)
//
// Class and Detail are the two fields whose values repeat across nearly
// every record of a campaign, so they become per-frame dictionaries;
// Outcome is already a small enum and is stored directly. Scenario IDs
// repeat their prefixes (round prefixes, plugin/class/file paths) rather
// than whole values, so they are front-coded against the previous row.
// Sequence numbers within a frame are non-decreasing by construction —
// ordered sinks emit consecutive runs, shard sub-sinks emit stride-n
// runs — so their deltas are tiny constants, and flate squeezes what
// remains.
package cprof

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"conferr/internal/profile"
)

// Format constants.
const (
	// DefaultFrameRecords is how many records a sink buffers per frame.
	// 4k records strikes the balance the format is built around: large
	// enough that dictionaries and flate amortize, small enough that a
	// frame inflates in one CPU's cache and a seek overshoots by at most
	// a few thousand records.
	DefaultFrameRecords = 4096

	frameMarker = 0x01
	indexMarker = 0x02

	trailerLen   = 16
	trailerMagic = "cIdx"

	// maxFramePayload bounds the sizes a preamble may claim, so a
	// corrupt or hostile file cannot make a scanner allocate gigabytes.
	maxFramePayload = 1 << 30
)

var fileMagic = []byte("cprof\x01")

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms campaigns run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FrameInfo describes one frame: its campaign identity, where it lives
// in the file, and which sequence range it covers. The trailer index is
// a list of these; scanners use them to skip, parallelize, or
// seek-to-sequence without inflating intervening frames.
type FrameInfo struct {
	// System and Generator are the campaign identity of every record in
	// the frame (frames never mix campaigns).
	System    string
	Generator string
	// Off is the file offset of the frame marker byte; Len the total
	// frame length through the end of its payload.
	Off int64
	Len int64
	// Count is the number of records in the frame.
	Count int
	// FirstSeq and LastSeq bound the frame's sequence numbers
	// (inclusive). Frames from one writer sink are internally ordered;
	// frames of different shard sub-sinks may overlap in range.
	FirstSeq int
	LastSeq  int
}

// Writer appends cprof frames to an underlying stream. One Writer per
// output file; any number of sinks (one per campaign, plus their shard
// sub-sinks) attach to it and their frames interleave at frame
// granularity. Frame writes are serialized internally, so sinks may
// flush from concurrent campaign workers; Close, however, must not race
// with in-flight sink writes — call it after the runs feeding the sinks
// have completed.
type Writer struct {
	// FrameRecords is the per-sink frame size in records (default
	// DefaultFrameRecords). Set before the first record lands.
	FrameRecords int

	mu     sync.Mutex
	w      io.Writer
	off    int64
	wrote  bool // magic emitted
	err    error
	closed atomic.Bool // checked lock-free on the record hot path

	frames    []FrameInfo
	sinks     []*Sink
	campaigns map[string]*Sink // WriteEntry's per-campaign sinks
	enc       frameEncoder
}

// NewWriter returns a Writer appending frames to w (typically a
// *bufio.Writer over a file). The file magic is emitted with the first
// frame; Close writes the frame index and trailer.
func NewWriter(w io.Writer) *Writer { return newWriterAt(w, 0, nil) }

// newWriterAt returns a Writer resuming an existing stream: off bytes
// (magic included, when off > 0) are already on disk and frames
// describes them. Used by ResumePath after keeping a file's intact prefix.
func newWriterAt(w io.Writer, off int64, frames []FrameInfo) *Writer {
	return &Writer{FrameRecords: DefaultFrameRecords, w: w, off: off, wrote: off > 0, frames: frames}
}

// Sink returns a streaming profile sink writing the campaign's records
// into the file, tagged with the campaign identity — the cprof
// counterpart of profile.NewJSONLSink. Sequence numbers are assigned
// per sink, starting at zero.
func (w *Writer) Sink(system, generator string) *Sink {
	s := &Sink{w: w, system: system, generator: generator}
	w.mu.Lock()
	w.sinks = append(w.sinks, s)
	w.mu.Unlock()
	return s
}

// flushSinks cuts every attached sink's partially filled frame and
// writes it out, as Close does before the index and an incomplete
// File.Close does instead of it.
func (w *Writer) flushSinks() error {
	w.mu.Lock()
	sinks := append([]*Sink(nil), w.sinks...)
	w.mu.Unlock()
	for _, s := range sinks {
		if err := s.flush(); err != nil {
			return err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close flushes every attached sink and writes the frame index and
// trailer. It does not close the underlying writer. The Writer is done
// after Close; further writes fail.
func (w *Writer) Close() error {
	if err := w.flushSinks(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.ensureMagicLocked(); err != nil {
		return err
	}
	index := appendIndex(nil, w.frames)
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(w.off))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.Checksum(index, crcTable))
	copy(trailer[12:16], trailerMagic)
	if _, err := w.w.Write(index); err != nil {
		w.err = fmt.Errorf("cprof: writing index: %w", err)
		return w.err
	}
	if _, err := w.w.Write(trailer[:]); err != nil {
		w.err = fmt.Errorf("cprof: writing trailer: %w", err)
		return w.err
	}
	w.off += int64(len(index) + trailerLen)
	w.err = fmt.Errorf("cprof: writer closed")
	w.closed.Store(true)
	return nil
}

func (w *Writer) ensureMagicLocked() error {
	if w.wrote {
		return nil
	}
	if _, err := w.w.Write(fileMagic); err != nil {
		w.err = fmt.Errorf("cprof: writing magic: %w", err)
		return w.err
	}
	w.off += int64(len(fileMagic))
	w.wrote = true
	return nil
}

// writeFrame encodes and appends one frame. recs and seqs are parallel;
// seqs are non-decreasing (the sinks guarantee it by cutting a frame
// when order would break).
func (w *Writer) writeFrame(system, generator string, recs []profile.Record, seqs []int) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.ensureMagicLocked(); err != nil {
		return err
	}
	head, comp, err := w.enc.encode(system, generator, recs, seqs)
	if err != nil {
		w.err = err
		return err
	}
	off := w.off
	if _, err := w.w.Write(head); err != nil {
		w.err = fmt.Errorf("cprof: writing frame: %w", err)
		return w.err
	}
	if _, err := w.w.Write(comp); err != nil {
		w.err = fmt.Errorf("cprof: writing frame payload: %w", err)
		return w.err
	}
	w.off += int64(len(head) + len(comp))
	w.frames = append(w.frames, FrameInfo{
		System: system, Generator: generator,
		Off: off, Len: int64(len(head) + len(comp)),
		Count:    len(recs),
		FirstSeq: seqs[0], LastSeq: seqs[len(recs)-1],
	})
	return nil
}

// frameRecords resolves the configured frame size.
func (w *Writer) frameRecords() int {
	if w.FrameRecords > 0 {
		return w.FrameRecords
	}
	return DefaultFrameRecords
}

// Sink buffers one campaign's records into cprof frames — the compact
// counterpart of profile.JSONLSink, and like it zero steady-state
// allocations per record: Write appends into a preallocated frame
// buffer, and the encode scratch (dictionaries, payload buffers, the
// flate stream) is reused across frames. It implements both
// profile.Sink and profile.ShardableSink, so the engine's tally-bypass
// path (each worker folding its own shard with no reassembly) works
// unchanged: a shard sub-sink buffers its own stride-n frames into the
// same file, and the trailer index keeps the interleaved result
// seek-able and mergeable back into sequence order.
type Sink struct {
	w         *Writer
	system    string
	generator string

	// seq assignment: next = start + len(written so far) * stride. The
	// root sink counts 0,1,2…; shard sub-sink k of n counts k, k+n, ….
	next   int
	stride int

	recs []profile.Record
	seqs []int

	shards []*Sink
}

var _ profile.ShardableSink = (*Sink)(nil)

// Write implements profile.Sink.
func (s *Sink) Write(r profile.Record) error {
	seq := s.next
	if s.stride > 0 {
		s.next += s.stride
	} else {
		s.next++
	}
	return s.writeSeq(seq, r)
}

// writeSeq buffers one record under an explicit sequence number,
// cutting the frame early if monotonicity would break (explicit-seq
// feeders like the converter may replay arbitrary files).
func (s *Sink) writeSeq(seq int, r profile.Record) error {
	if s.w.closed.Load() {
		// Fail now rather than buffering into a finished file: a record
		// accepted here could never be flushed.
		return fmt.Errorf("cprof: writer closed")
	}
	if s.recs == nil {
		n := s.w.frameRecords()
		s.recs = make([]profile.Record, 0, n)
		s.seqs = make([]int, 0, n)
	}
	if len(s.seqs) > 0 && seq < s.seqs[len(s.seqs)-1] {
		if err := s.flush(); err != nil {
			return err
		}
	}
	s.recs = append(s.recs, r)
	s.seqs = append(s.seqs, seq)
	if len(s.recs) >= cap(s.recs) {
		return s.flush()
	}
	return nil
}

// flush writes the buffered records as one frame.
func (s *Sink) flush() error {
	if len(s.recs) == 0 {
		return nil
	}
	err := s.w.writeFrame(s.system, s.generator, s.recs, s.seqs)
	clearRecords(s.recs)
	s.recs = s.recs[:0]
	s.seqs = s.seqs[:0]
	return err
}

// clearRecords zeroes the flushed slots so the buffer does not pin the
// records' strings until the next frame fills.
func clearRecords(recs []profile.Record) {
	for i := range recs {
		recs[i] = profile.Record{}
	}
}

// ShardSink implements profile.ShardableSink: the k-th of n sub-sinks
// owns the stride-n sequence run k, k+n, k+2n, … and buffers its own
// frames, so shard workers never contend except at frame writes. Like
// TallySink, repeated calls for the same k return the same sub-sink.
func (s *Sink) ShardSink(k, n int) profile.Sink {
	s.w.mu.Lock()
	if len(s.shards) < n {
		shards := make([]*Sink, n)
		copy(shards, s.shards)
		s.shards = shards
	}
	sub := s.shards[k]
	if sub == nil {
		sub = &Sink{w: s.w, system: s.system, generator: s.generator, next: k, stride: n}
		s.shards[k] = sub
		s.w.sinks = append(s.w.sinks, sub)
	}
	s.w.mu.Unlock()
	return sub
}
