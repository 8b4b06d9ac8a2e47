package profile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Sink consumes injection records as the engine produces them — the
// streaming counterpart of accumulating a Profile. The runner calls Write
// from a single goroutine, in scenario order; sinks need no locking of
// their own. Writing to a shared destination from several concurrent
// campaigns is the caller's problem (see LockedWriter).
type Sink interface {
	// Write records one completed experiment. A non-nil error aborts the
	// campaign.
	Write(Record) error
}

// MemorySink accumulates records into the wrapped Profile — the sink
// behind the slice-returning campaign API and a suite cell kept in
// memory. It refuses a ScenarioID that repeats an earlier one, which
// would collide in per-scenario reporting (Compare, FormatRecords
// sorting) and in JSONL dedup or resume. Records arrive gap-free in
// sequence order, so the profile's length is the duplicate's position.
type MemorySink struct {
	// Profile receives every record.
	Profile *Profile
	seen    map[string]struct{}
}

// Write implements Sink.
func (s *MemorySink) Write(r Record) error {
	if s.seen == nil {
		s.seen = make(map[string]struct{})
	}
	if _, dup := s.seen[r.ScenarioID]; dup {
		return fmt.Errorf("core: plugin %s emitted duplicate ScenarioID %q (scenario #%d)",
			s.Profile.Generator, r.ScenarioID, len(s.Profile.Records))
	}
	s.seen[r.ScenarioID] = struct{}{}
	s.Profile.Add(r)
	return nil
}

// ShardableSink is a Sink whose writes are order-insensitive and can be
// fanned out: ShardSink hands out the k-th of n independent sub-sinks,
// each written by exactly one campaign worker with no locking and no
// ordering. The sharded campaign runner detects this capability and
// skips sequence reassembly entirely — workers fold their own shard's records and the owner merges at read
// time. Call ShardSink for every k before the run starts; reading the
// merged totals is only valid after the run completes.
type ShardableSink interface {
	Sink
	// ShardSink returns the k-th of n sub-sinks.
	ShardSink(k, n int) Sink
}

// CanShardSink reports whether the sink can actually fan out. Wrapper
// sinks (MultiSink) implement ShardSink unconditionally but are only
// shardable when every member is; such types report the effective
// capability via a SinkShardable() bool method, which takes precedence.
func CanShardSink(s Sink) bool {
	if w, ok := s.(interface{ SinkShardable() bool }); ok {
		return w.SinkShardable()
	}
	_, ok := s.(ShardableSink)
	return ok
}

// TallySink folds records into a running Summary without retaining them —
// O(1) memory whatever the faultload size, the companion of a JSONL sink
// on million-scenario campaigns. It is shardable: under a sharded
// parallel run each worker folds into its own padded counter set and
// Summary merges the shards, so the hot path never shares a cache
// line between workers.
type TallySink struct {
	summary Summary
	shards  []tallyShard
}

var _ ShardableSink = (*TallySink)(nil)

// tallyShard is one worker's private counter set, padded to keep
// neighbouring shards out of each other's cache lines.
type tallyShard struct {
	summary Summary
	_       [64]byte
}

// Write implements Sink.
func (t *tallyShard) Write(r Record) error {
	t.summary.Add(r)
	return nil
}

// Write implements Sink.
func (s *TallySink) Write(r Record) error {
	s.summary.Add(r)
	return nil
}

// ShardSink implements ShardableSink. The n sub-sinks coexist with direct
// Write calls made outside the run; Summary and Records merge both.
func (s *TallySink) ShardSink(k, n int) Sink {
	if len(s.shards) < n {
		shards := make([]tallyShard, n)
		copy(shards, s.shards)
		s.shards = shards
	}
	return &s.shards[k]
}

// Summary returns the totals folded so far, merged across shards.
func (s *TallySink) Summary() Summary {
	out := s.summary
	for i := range s.shards {
		out.Merge(s.shards[i].summary)
	}
	return out
}

// Discard drops every record — the sink for runs whose only output is a
// summary someone else tallies (the suite keeps its own TallySink per
// cell). Routing a summary-only campaign here instead of a MemorySink
// keeps million-scenario runs from retaining every record just to print
// four counters: the BENCH_7 measurement recorded ~40% of wall clock
// going to GC over the retained profile. It is shardable (no state at
// all), so the engine's no-reassembly bypass stays available.
var Discard Sink = discardSink{}

type discardSink struct{}

// Write implements Sink.
func (discardSink) Write(Record) error { return nil }

// ShardSink implements ShardableSink.
func (d discardSink) ShardSink(k, n int) Sink { return d }

// MultiSink fans every record out to each member, in order, stopping at
// the first error. It is shardable exactly when every member is (a suite
// tallying into two TallySinks keeps the engine's no-reassembly bypass;
// one ordered member — JSONL, memory — forces ordered flushing for all).
type MultiSink []Sink

// Write implements Sink.
func (m MultiSink) Write(r Record) error {
	for _, s := range m {
		if err := s.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// SinkShardable reports whether every member can fan out (see
// CanShardSink).
func (m MultiSink) SinkShardable() bool {
	for _, s := range m {
		if !CanShardSink(s) {
			return false
		}
	}
	return true
}

// ShardSink implements ShardableSink by fanning out each member. Only
// sound when SinkShardable reports true — the engine checks through
// CanShardSink.
func (m MultiSink) ShardSink(k, n int) Sink {
	out := make(MultiSink, len(m))
	for i, s := range m {
		out[i] = s.(ShardableSink).ShardSink(k, n)
	}
	return out
}

// StripDurations wraps a sink so every record's Duration is zeroed
// before the write. Duration is the one run-varying record field —
// everything else is deterministic for a fixed faultload — so stripped
// JSONL streams from two equivalent runs (cold vs warm-reload, one vs
// many workers) compare byte-identical.
func StripDurations(s Sink) Sink { return &stripDurationSink{s: s} }

type stripDurationSink struct{ s Sink }

// Write implements Sink.
func (d *stripDurationSink) Write(r Record) error {
	r.Duration = 0
	return d.s.Write(r)
}

// SinkShardable reports the wrapped sink's capability (see CanShardSink).
func (d *stripDurationSink) SinkShardable() bool { return CanShardSink(d.s) }

// ShardSink implements ShardableSink by stripping in front of the
// wrapped sink's shard.
func (d *stripDurationSink) ShardSink(k, n int) Sink {
	return StripDurations(d.s.(ShardableSink).ShardSink(k, n))
}

// jsonlRecord is the schema of one JSONL profile line: the jsonRecord
// fields plus the campaign identity and
// the record's sequence number, so a single file can carry interleaved
// records of a whole campaign suite and still be split back into
// per-campaign, scenario-ordered profiles.
type jsonlRecord struct {
	System    string `json:"system"`
	Generator string `json:"generator"`
	Seq       int    `json:"seq"`
	jsonRecord
}

// JSONLSink streams records as JSON Lines: one self-contained object per
// record, flushed as it is written, so a campaign's profile lands on disk
// incrementally instead of materializing in memory. Each line is emitted
// with a single Write call on the underlying writer, keeping lines atomic
// when several campaigns share a LockedWriter. Lines are rendered by a
// hand-rolled append encoder, byte-identical to encoding/json over the
// same schema (fuzz-verified) but reusing one buffer per sink — zero
// steady-state allocations per record instead of reflection per line.
type JSONLSink struct {
	system    string
	generator string
	w         io.Writer
	seq       int
	buf       []byte
}

// NewJSONLSink returns a sink writing the campaign's records to w, tagged
// with the campaign identity.
func NewJSONLSink(w io.Writer, system, generator string) *JSONLSink {
	return &JSONLSink{system: system, generator: generator, w: w}
}

// Write implements Sink.
func (s *JSONLSink) Write(r Record) error {
	s.buf = AppendJSONLRecord(s.buf[:0], s.system, s.generator, s.seq, r)
	s.seq++
	if _, err := s.w.Write(s.buf); err != nil {
		return fmt.Errorf("profile: writing JSONL record: %w", err)
	}
	return nil
}

// AppendJSONLRecord renders one JSONL profile line (including the
// trailing newline) into buf and returns it. The output is byte-identical
// to encoding/json marshalling of the same schema — field order, omitted
// empties, string escaping (HTML-safe, invalid-UTF-8 replacement) — which
// the encoder fuzz test pins down. ParseJSONLLine, under ScanJSONL,
// decodes exactly this shape without reflection.
func AppendJSONLRecord(buf []byte, system, generator string, seq int, r Record) []byte {
	buf = AppendJSONLOpening(buf, system, generator)
	buf = strconv.AppendInt(buf, int64(seq), 10)
	buf = append(buf, `,"scenario_id":`...)
	buf = appendJSONString(buf, r.ScenarioID)
	buf = append(buf, `,"class":`...)
	buf = appendJSONString(buf, r.Class)
	if r.Description != "" {
		buf = append(buf, `,"description":`...)
		buf = appendJSONString(buf, r.Description)
	}
	buf = append(buf, `,"outcome":`...)
	buf = appendJSONString(buf, r.Outcome.String())
	if r.Detail != "" {
		buf = append(buf, `,"detail":`...)
		buf = appendJSONString(buf, r.Detail)
	}
	if ns := r.Duration.Nanoseconds(); ns != 0 {
		buf = append(buf, `,"duration_ns":`...)
		buf = strconv.AppendInt(buf, ns, 10)
	}
	buf = append(buf, '}', '\n')
	return buf
}

// AppendJSONLOpening appends the bytes every JSONL profile line of one
// campaign opens with, up to its sequence number:
// {"system":S,"generator":P,"seq":
func AppendJSONLOpening(buf []byte, system, generator string) []byte {
	buf = append(buf, `{"system":`...)
	buf = appendJSONString(buf, system)
	buf = append(buf, `,"generator":`...)
	buf = appendJSONString(buf, generator)
	return append(buf, `,"seq":`...)
}

const jsonHex = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json's default (HTML-escaping)
// encoder passes through verbatim: printable characters except the JSON
// metacharacters `"` and `\\` and the HTML-sensitive `<`, `>`, `&`.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = true
	}
	safe['"'], safe['\\'] = false, false
	safe['<'], safe['>'], safe['&'] = false, false, false
	return
}()

// appendJSONString appends s as a JSON string literal, escaping exactly
// like encoding/json's default (HTML-escaping) encoder: quote and
// backslash with a backslash; \n, \r, \t, \b, \f short forms; other
// bytes and `<`, `>`, `&` as \u00xx sequences; invalid UTF-8 as the
// \ufffd escape; and U+2028/U+2029 as \u2028/\u2029.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			default:
				buf = append(buf, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// LockedWriter serializes Write calls to an underlying writer, letting the
// JSONL sinks of concurrently running campaigns share one output file with
// line-granularity interleaving.
type LockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLockedWriter wraps w.
func NewLockedWriter(w io.Writer) *LockedWriter { return &LockedWriter{w: w} }

// Write implements io.Writer.
func (l *LockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// JSONLEntry is one decoded JSONL profile line: the campaign identity,
// the record's sequence number within its campaign, and the record.
type JSONLEntry struct {
	System    string
	Generator string
	Seq       int
	Record    Record
}

// ParseJSONLLine decodes one JSONL profile line (no trailing newline)
// into its entry — the single-line counterpart of ScanJSONL, used by
// converters and merge adapters that receive lines one at a time. Lines
// in AppendJSONLRecord's exact shape take a reflection-free decoder;
// any other line, malformed ones included, goes through encoding/json,
// whose result and error are returned unchanged.
func ParseJSONLLine(line []byte) (JSONLEntry, error) {
	if e, ok := decodeJSONLLine(line); ok {
		return e, nil
	}
	return unmarshalJSONLLine(line)
}

// unmarshalJSONLLine decodes any JSONL profile line with encoding/json:
// ParseJSONLLine's fallback, and the specification of its fast path.
func unmarshalJSONLLine(line []byte) (JSONLEntry, error) {
	var jr jsonlRecord
	if err := json.Unmarshal(line, &jr); err != nil {
		return JSONLEntry{}, err
	}
	rec, err := jr.record()
	if err != nil {
		return JSONLEntry{}, err
	}
	return JSONLEntry{System: jr.System, Generator: jr.Generator, Seq: jr.Seq, Record: rec}, nil
}

// maxJSONLLine bounds one profile line; anything longer is corrupt, not
// a record.
const maxJSONLLine = 16 * 1024 * 1024

// ErrJSONLLineTooLong is ReadJSONLLine's refusal of a line past the
// 16 MiB bound: corrupt data, not a record.
var ErrJSONLLineTooLong = fmt.Errorf("line exceeds %d bytes", maxJSONLLine)

// ReadJSONLLine reads one profile line from br, newline included,
// spilling a line longer than br's buffer into *spill (reused across
// calls). At the end of input it returns the unterminated tail, if any,
// with io.EOF; a line longer than 16 MiB fails with ErrJSONLLineTooLong
// once that much of it is read, so corrupt input never grows the spill
// past the bound.
func ReadJSONLLine(br *bufio.Reader, spill *[]byte) ([]byte, error) {
	chunk, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return chunk, err
	}
	*spill = append((*spill)[:0], chunk...)
	for err == bufio.ErrBufferFull {
		chunk, err = br.ReadSlice('\n')
		*spill = append(*spill, chunk...)
		if len(*spill) > maxJSONLLine {
			return nil, ErrJSONLLineTooLong
		}
	}
	return *spill, err
}

// ScanJSONL streams a JSON Lines profile (as written by JSONLSink) entry
// by entry to fn, in file order, without materializing anything: memory
// stays constant however many records the file holds — the reader-side
// counterpart of the streaming campaign engine. Decoding fans out: the
// input is cut into runs of whole lines that GOMAXPROCS workers parse
// (see Fan), while fn runs on the caller's goroutine, in file order. A
// non-nil error from fn stops the scan and is returned verbatim. Empty
// lines are skipped. Parse errors name both the line number and the
// byte offset of the offending line, so a bad record in a multi-GB
// profile is seek-able, not just countable.
func ScanJSONL(r io.Reader, fn func(JSONLEntry) error) error {
	c := &jsonlCutter{r: r, size: jsonlRunBytes}
	return FanEach(NewFan(c.cut, decodeJSONLRun), fn)
}

// jsonlRunBytes is the size ScanJSONL cuts its runs at: large enough
// that handing a run to a worker costs little beside parsing it.
var jsonlRunBytes = 256 << 10

// jsonlRun is one unit of a JSONL scan: whole lines, the last one
// unterminated only at the end of the input, the first of them line
// number line at byte offset off.
type jsonlRun struct {
	buf  []byte
	line int
	off  int64
}

// jsonlCutter cuts a JSONL stream into runs of at least size bytes that
// end at a newline. A line longer than a run gets a run of its own, up
// to the 16 MiB line bound.
type jsonlCutter struct {
	r     io.Reader
	size  int
	carry []byte // the start of a line the previous run cut off
	line  int    // lines cut so far
	off   int64  // bytes cut so far
	eof   bool
	err   error // the read error that ended the input
}

func (c *jsonlCutter) cut(u *jsonlRun) (bool, error) {
	if c.eof {
		return false, c.err
	}
	buf := append(u.buf[:0], c.carry...)
	scanned := 0 // buf[:scanned] holds no newline
	for {
		if len(buf) >= c.size {
			if bytes.IndexByte(buf[scanned:], '\n') >= 0 {
				break
			}
			scanned = len(buf)
			if len(buf) > maxJSONLLine {
				// buf is one line, unterminated so far.
				return false, fmt.Errorf("profile: JSONL line %d (byte offset %d): %w", c.line+1, c.off, ErrJSONLLineTooLong)
			}
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(c.size, len(buf)))
		}
		n, err := c.r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			c.eof = true
			if err != io.EOF {
				c.err = fmt.Errorf("profile: reading JSONL: %w", err)
			}
			break
		}
	}
	c.carry = c.carry[:0]
	if !c.eof {
		end := bytes.LastIndexByte(buf, '\n') + 1
		c.carry = append(c.carry, buf[end:]...)
		buf = buf[:end]
	} else if len(buf) == 0 {
		u.buf = buf
		return false, c.err
	}
	u.buf, u.line, u.off = buf, c.line+1, c.off
	c.line += bytes.Count(buf, []byte{'\n'})
	c.off += int64(len(buf))
	return true, nil
}

// decodeJSONLRun parses a run's lines into dst, stopping at the first
// line that fails with the error ScanJSONL returns for it.
func decodeJSONLRun(u *jsonlRun, dst []JSONLEntry) ([]JSONLEntry, error) {
	b, lineNo, off := u.buf, u.line, u.off
	for len(b) > 0 {
		n := bytes.IndexByte(b, '\n') + 1
		if n == 0 {
			n = len(b)
		}
		if n > maxJSONLLine {
			return dst, fmt.Errorf("profile: JSONL line %d (byte offset %d): %w", lineNo, off, ErrJSONLLineTooLong)
		}
		line := b[:n]
		if k := len(line); k > 0 && line[k-1] == '\n' {
			line = line[:k-1]
		}
		if k := len(line); k > 0 && line[k-1] == '\r' {
			line = line[:k-1]
		}
		if len(line) > 0 {
			e, err := ParseJSONLLine(line)
			if err != nil {
				return dst, fmt.Errorf("profile: JSONL line %d (byte offset %d): %w", lineNo, off, err)
			}
			dst = append(dst, e)
		}
		b = b[n:]
		lineNo++
		off += int64(n)
	}
	return dst, nil
}
