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
// counterpart of ScanPath. OpenPath picks the format from the path, and
// every profile writer (`matrix -stream-out`, `convert`, `campaign -out`
// and the dist coordinator's `-out`) writes through a File, so that
// choice is made in one place: a ".cprof" path gets compact frames, "-"
// gets JSONL on stdout, and any other path gets canonical JSONL lines.
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

// OpenPath opens the profile output at path, resumed at checkpoint
// front: the file keeps exactly its first front records and appends
// after them. Everything past front — a torn tail, records flushed
// after the last durable checkpoint, a stale cprof index — is truncated
// away; fewer than front records means the file and the checkpoint do
// not belong together. A cprof file is reconciled by walking its frames
// (payload CRCs verified, no inflation), and front must land on a frame
// boundary, which it does because a checkpointing writer flushes, and so
// cuts a frame, before every checkpoint. A JSONL file is reconciled by
// counting lines. front == 0 creates or truncates the file; "-" cannot
// be resumed.
func OpenPath(path string, front int) (*File, error) {
	compact := strings.HasSuffix(path, ".cprof")
	if path == "-" {
		if front > 0 {
			return nil, errors.New("cprof: standard output cannot resume at a checkpoint")
		}
		return newFile(nil, path, false, 0, nil), nil
	}
	if front == 0 {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("cprof: %w", err)
		}
		return newFile(f, path, compact, 0, nil), nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("cprof: resuming output: %w", err)
	}
	var (
		end    int64
		frames []FrameInfo
	)
	if compact {
		frames, end, err = framesUpTo(f, path, front)
	} else {
		end, err = linesUpTo(f, path, front)
	}
	if err == nil {
		if err = f.Truncate(end); err != nil {
			err = fmt.Errorf("cprof: truncating output past the checkpoint front: %w", err)
		}
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return newFile(f, path, compact, end, frames), nil
}

// framesUpTo walks a cprof file's frames and returns the ones holding
// its first front records, checked contiguous from sequence 0, and the
// offset where they end.
func framesUpTo(f *os.File, path string, front int) ([]FrameInfo, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("cprof: %w", err)
	}
	frames, _, err := walkFrames(f, st.Size())
	if err != nil {
		return nil, 0, err
	}
	var kept []FrameInfo
	records := 0
	end := int64(len(fileMagic))
	for _, fi := range frames {
		if records == front {
			break
		}
		if fi.FirstSeq != records || fi.LastSeq != records+fi.Count-1 {
			return nil, 0, fmt.Errorf("cprof: %s: frame at %d covers sequences %d..%d where %d was expected — wrong or corrupt output file",
				path, fi.Off, fi.FirstSeq, fi.LastSeq, records)
		}
		if records+fi.Count > front {
			return nil, 0, fmt.Errorf("cprof: %s: checkpoint front %d lands inside the frame at %d (sequences %d..%d) — file and checkpoint do not belong together",
				path, front, fi.Off, fi.FirstSeq, fi.LastSeq)
		}
		records += fi.Count
		kept = append(kept, fi)
		end = fi.Off + fi.Len
	}
	if records < front {
		return nil, 0, fmt.Errorf("cprof: %s has %d contiguous records but checkpoint front is %d — wrong or corrupt output file",
			path, records, front)
	}
	return kept, end, nil
}

// linesUpTo returns the offset where a JSONL file's first front lines
// end.
func linesUpTo(f *os.File, path string, front int) (int64, error) {
	br := bufio.NewReader(f)
	var end int64
	lines := 0
	for lines < front {
		chunk, err := br.ReadSlice('\n')
		end += int64(len(chunk))
		for err == bufio.ErrBufferFull {
			chunk, err = br.ReadSlice('\n')
			end += int64(len(chunk))
		}
		if err != nil {
			break
		}
		lines++
	}
	if lines < front {
		return 0, fmt.Errorf("cprof: output %s has %d lines but checkpoint front is %d — wrong or corrupt output file",
			path, lines, front)
	}
	return end, nil
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

// Flush cuts every cprof sink's partial frame and pushes everything
// through the buffer to the OS — the durability point before a
// checkpoint.
func (c *File) Flush() error {
	if c.W != nil {
		if err := c.W.Flush(); err != nil {
			return err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("cprof: flushing %s: %w", c.path, err)
	}
	return nil
}

// Sync flushes like Flush and then fsyncs the backing file, making every
// flushed record durable against a host crash — the stronger durability
// point `dist -fsync` checkpoints against.
func (c *File) Sync() error {
	if err := c.Flush(); err != nil {
		return err
	}
	if c.f == nil {
		return nil
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("cprof: syncing %s: %w", c.path, err)
	}
	return nil
}

// Close finishes the output. A cprof output closed with complete=true
// gets its frame index and trailer first — a cleanly closed,
// trailer-indexed file; with complete=false only buffered frames are
// flushed, so the file stays a valid resumable prefix (scans
// sequentially, index rebuilds from preambles) for a later OpenPath. A
// JSONL output is flushed either way. Stdout is flushed, not closed.
func (c *File) Close(complete bool) error {
	var err error
	if c.W != nil && complete {
		err = c.W.Close()
	} else if c.W != nil {
		err = c.W.Flush()
	}
	if ferr := c.bw.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("cprof: flushing %s: %w", c.path, ferr)
	}
	if c.f != nil {
		if cerr := c.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("cprof: closing %s: %w", c.path, cerr)
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
