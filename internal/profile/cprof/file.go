package cprof

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"conferr/internal/profile"
)

// File is one profile output, in either format — the write-side
// counterpart of ScanPath. OpenPath and ResumePath pick the format from
// the path, and every profile writer (`matrix -stream-out`, `convert`,
// `campaign -out` and the dist coordinator's `-out`) writes through a
// File, so that choice is made in one place: a ".cprof" path gets
// compact frames, "-" gets JSONL on stdout, and any other path gets
// canonical JSONL lines.
type File struct {
	f    *os.File // nil for stdout
	path string
	bw   *bufio.Writer
	// W is the frame writer of a cprof output, and nil for a JSONL one.
	W *Writer
	// lw serializes a JSONL output's writes, so the sinks of concurrent
	// campaigns interleave whole lines; nil for a cprof output.
	lw  *profile.LockedWriter
	buf []byte // WriteEntry's JSONL scratch
}

// Create creates (or truncates) a cprof output file, whatever its name.
func Create(path string) (*File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cprof: %w", err)
	}
	return newFile(f, path, true, 0, nil), nil
}

func newFile(f *os.File, path string, compact bool, end int64, frames []FrameInfo) *File {
	w := io.Writer(os.Stdout)
	if f != nil {
		w = f
	}
	c := &File{f: f, path: path, bw: bufio.NewWriterSize(w, 256*1024)}
	if compact {
		c.W = newWriterAt(c.bw, end, frames)
	} else {
		c.lw = profile.NewLockedWriter(c.bw)
	}
	return c
}

// OpenPath creates (or truncates) the profile output at path; "-" is
// JSONL on standard output.
func OpenPath(path string) (*File, error) {
	if path == "-" {
		return newFile(nil, path, false, 0, nil), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return newFile(f, path, strings.HasSuffix(path, ".cprof"), 0, nil), nil
}

// ResumePath reopens the profile output at path (creating it if missing)
// to append after the longest intact prefix of records 0, 1, 2, … it
// holds, and returns that prefix's length: the sequence to resume from.
// A cprof file keeps its CRC-verified frames while they run contiguous
// from sequence 0 and each holds DefaultFrameRecords records (payloads
// are not inflated): a shorter frame — the one Close(false) cut short,
// or a finished campaign's last — is written again, so the resumed file
// frames its records as an uninterrupted run does. A JSONL file keeps
// its newline-terminated lines while each parses and carries its own
// line index as seq. Everything after the prefix — a torn or corrupt
// tail, a short frame and its successors, a trailer index — is
// truncated away, for the resumed run to write again.
func ResumePath(path string) (*File, int, error) {
	if path == "-" {
		return nil, 0, errors.New("standard output cannot be resumed")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, 0, err
	}
	compact := strings.HasSuffix(path, ".cprof")
	var (
		front  int
		end    int64
		frames []FrameInfo
	)
	if compact {
		frames, front, end, err = intactFrames(f)
	} else {
		front, end, err = intactLines(f)
	}
	if err == nil {
		err = f.Truncate(end)
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("resuming %s: %w", path, err)
	}
	return newFile(f, path, compact, end, frames), front, nil
}

// intactFrames returns a cprof file's leading full frames that hold
// records 0..front-1 in order, and the offset where they end. A file
// shorter than the magic holds nothing yet.
func intactFrames(f *os.File) (frames []FrameInfo, front int, end int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	if st.Size() < int64(len(fileMagic)) {
		return nil, 0, 0, nil
	}
	all, _, err := walkFrames(f, st.Size())
	if err != nil {
		return nil, 0, 0, err
	}
	end = int64(len(fileMagic))
	for _, fi := range all {
		if fi.Count != DefaultFrameRecords || fi.FirstSeq != front || fi.LastSeq != front+fi.Count-1 {
			break
		}
		frames = append(frames, fi)
		front += fi.Count
		end = fi.Off + fi.Len
	}
	return frames, front, end, nil
}

// intactLines returns how many leading lines of a JSONL file are whole
// records numbered by their line index, and the offset where they end.
// A line too long to be a record ends the prefix like a damaged one.
func intactLines(r io.Reader) (front int, end int64, err error) {
	br := bufio.NewReaderSize(r, 256*1024)
	var long []byte
	for {
		line, err := profile.ReadJSONLLine(br, &long)
		if err == io.EOF || err == profile.ErrJSONLLineTooLong {
			return front, end, nil
		}
		if err != nil {
			return 0, 0, err
		}
		if e, perr := profile.ParseJSONLLine(line[:len(line)-1]); perr != nil || e.Seq != front {
			return front, end, nil
		}
		front++
		end += int64(len(line))
	}
}

// Sink returns a streaming sink writing one campaign's records into the
// file, sequence-numbered from zero. A cprof sink is shardable, so the
// engine's no-reassembly bypass stays on; the JSONL sinks of concurrent
// campaigns share one locked writer.
func (c *File) Sink(system, generator string) profile.Sink {
	if c.W != nil {
		return c.W.Sink(system, generator)
	}
	return profile.NewJSONLSink(c.lw, system, generator)
}

// WriteEntry writes one decoded entry under its own campaign identity
// and sequence number. Single-goroutine, like every sink write path.
func (c *File) WriteEntry(e profile.JSONLEntry) error {
	if c.W != nil {
		return c.W.WriteEntry(e)
	}
	c.buf = profile.AppendJSONLRecord(c.buf[:0], e.System, e.Generator, e.Seq, e.Record)
	_, err := c.lw.Write(c.buf)
	return err
}

// Write takes exactly one rendered JSONL line (trailing newline
// optional) — the SeqMerger's output contract, so a dist merge can land
// in either format. A JSONL output copies the line verbatim; a cprof
// output parses it back into its entry and re-encodes it into frames.
func (c *File) Write(p []byte) (int, error) {
	if c.W == nil {
		return c.lw.Write(p)
	}
	line := bytes.TrimSuffix(p, []byte{'\n'})
	if len(line) == 0 {
		return len(p), nil
	}
	e, err := profile.ParseJSONLLine(line)
	if err != nil {
		return 0, err
	}
	if err := c.W.WriteEntry(e); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Flush pushes the buffered bytes to the OS: every record a JSONL
// output holds, and a cprof output's finished frames. It cuts no frame,
// so a flushed cprof output keeps the frames an unflushed one would.
func (c *File) Flush() error {
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("flushing %s: %w", c.path, err)
	}
	return nil
}

// Sync flushes like Flush and then fsyncs the backing file, making every
// flushed record durable against a host crash (`dist -fsync`).
func (c *File) Sync() error {
	if err := c.Flush(); err != nil {
		return err
	}
	if c.f == nil {
		return nil
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", c.path, err)
	}
	return nil
}

// Close finishes the output. A cprof output closed with complete=true
// gets its frame index and trailer after its sinks' last frames — a
// cleanly closed, trailer-indexed file; with complete=false the sinks'
// unfinished frames are cut short and written, so the file holds every
// record written so far as a trailerless prefix that scans sequentially
// (ResumePath writes a short frame again). A JSONL output is flushed
// either way. Stdout is flushed, not closed.
func (c *File) Close(complete bool) error { return c.close(complete, c.Flush) }

// SyncClose finishes the output like Close and fsyncs it before the
// file closes, so every record it holds — the last frame and the
// trailer included — is durable against a host crash (`dist -fsync`).
func (c *File) SyncClose(complete bool) error { return c.close(complete, c.Sync) }

func (c *File) close(complete bool, flush func() error) error {
	var err error
	if c.W != nil && complete {
		err = c.W.Close()
	} else if c.W != nil {
		err = c.W.flushSinks()
	}
	if ferr := flush(); err == nil {
		err = ferr
	}
	if c.f != nil {
		if cerr := c.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing %s: %w", c.path, cerr)
		}
	}
	return err
}

// WriteEntry buffers one decoded entry into the frames of its
// campaign's internal sink, creating the sink on first appearance. The
// entry's explicit sequence number is preserved; a sequence running
// backwards cuts the current frame so frames stay internally ordered.
// Single-goroutine, like every sink write path.
func (w *Writer) WriteEntry(e profile.JSONLEntry) error {
	key := e.System + "\x00" + e.Generator
	w.mu.Lock()
	if w.campaigns == nil {
		w.campaigns = make(map[string]*Sink)
	}
	s := w.campaigns[key]
	if s == nil {
		s = &Sink{w: w, system: e.System, generator: e.Generator}
		w.campaigns[key] = s
		w.sinks = append(w.sinks, s)
	}
	w.mu.Unlock()
	return s.writeSeq(e.Seq, e.Record)
}

// ToJSONL renders a cprof file as canonical JSONL on w, in canonical
// order (campaigns by first appearance, records by sequence) — the
// lossless cprof→JSONL conversion. For ordered single-campaign inputs
// the output is byte-identical to the JSONL stream the same campaign
// would have written directly.
func ToJSONL(path string, w io.Writer) error {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 256*1024)
	}
	var buf []byte
	err := ScanFileSeqOrdered(path, func(e profile.JSONLEntry) error {
		buf = profile.AppendJSONLRecord(buf[:0], e.System, e.Generator, e.Seq, e.Record)
		_, werr := bw.Write(buf)
		return werr
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// FromJSONL converts a JSONL stream into cprof frames on the Writer
// (whose Close the caller owns) — the lossless JSONL→cprof conversion.
func FromJSONL(r io.Reader, w *Writer) error {
	return profile.ScanJSONL(r, w.WriteEntry)
}
