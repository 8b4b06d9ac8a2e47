// Package dist distributes ConfErr campaigns across worker processes and
// machines. A campaign worker daemon (Server, hosted by cmd/sutd -serve)
// accepts shard specifications over a line-delimited JSON TCP protocol,
// re-derives its slice of the faultload locally — generation is a pure
// function of (Seed, shard k of n), so no scenario ever crosses the wire
// — and streams sequence-tagged records back. A Coordinator schedules
// shards across workers, retries failed or stalled shards on other
// workers with capped exponential backoff, and merges the shard streams
// into one deterministic, gap-checked profile that is byte-identical to
// a single-process run of the same campaign. Resume is nearly free: the
// merged output is a gap-free prefix of the stream, and a resumed
// coordinator re-requests each shard from where the output's intact
// records end.
package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"conferr/internal/profile"
)

// CampaignSpec carries every setting a remote worker needs to re-derive
// and run any shard of one campaign: the registered target and generator
// names, the generator parameters, the run flags that shape the stream,
// and the watchdog deadlines. It describes one `conferr matrix` cell —
// the single-process run distributed campaigns must be byte-identical to
// — and a worker builds that cell with the builder matrix uses
// (conferr.DistCampaign).
type CampaignSpec struct {
	// System is the registered target name.
	System string `json:"system"`
	// Plugin is the registered generator name.
	Plugin string `json:"plugin"`
	// Seed makes the faultload reproducible — the purity anchor that lets
	// every worker re-derive the identical stream.
	Seed int64 `json:"seed"`
	// PerModel, PerDirective and PerClass bound the generator (see
	// GeneratorOptions).
	PerModel     int `json:"per_model,omitempty"`
	PerDirective int `json:"per_directive,omitempty"`
	PerClass     int `json:"per_class,omitempty"`
	// Rounds, Sample and Limit wrap the generator exactly like a matrix
	// cell: replay Rounds times, reservoir-sample Sample, cap at Limit —
	// applied in that order.
	Rounds int `json:"rounds,omitempty"`
	Sample int `json:"sample,omitempty"`
	Limit  int `json:"limit,omitempty"`
	// Port is the primary target port the faultload embeds; it must match
	// the single-process run being reproduced (matrix: -base-port + cell
	// index).
	Port int `json:"port,omitempty"`
	// Lifecycle selects the worker SUT lifecycle: "cold" (or empty),
	// "reload", or "validate".
	Lifecycle string `json:"lifecycle,omitempty"`
	// Memnet serves worker SUTs over the in-process transport instead of
	// kernel TCP.
	Memnet bool `json:"memnet,omitempty"`
	// KeepGoing records infrastructure errors instead of aborting the
	// shard.
	KeepGoing bool `json:"keep_going,omitempty"`
	// NoDuration zeroes each record's duration before encoding, making
	// equivalent runs byte-comparable.
	NoDuration bool `json:"no_duration,omitempty"`
	// TallyOnly selects the summary sink mode: the worker folds its
	// shard's records into an O(1) Summary and sends only that — no
	// record frames — for campaigns whose output is a scorecard, not a
	// profile.
	TallyOnly bool `json:"tally_only,omitempty"`
	// ExperimentTimeout and PhaseTimeout (nanoseconds; 0 = off) arm the
	// worker's phase watchdog, so every shard runs under the same
	// deadlines as the single-process run it reproduces.
	ExperimentTimeout time.Duration `json:"experiment_timeout,omitempty"`
	PhaseTimeout      time.Duration `json:"phase_timeout,omitempty"`
}

// ProtocolVersion is the dist wire protocol's version. It is bumped on
// any incompatible change to the request or frame encoding, so a
// coordinator and a worker from different builds fail fast with a clear
// complaint instead of mis-merging streams. Version 2 moved the watchdog
// deadlines into the campaign spec; a version 1 peer would silently run
// without them.
const ProtocolVersion = 2

// ShardRequest is the single client→worker message: run shard Shard of
// Shards of the campaign Campaign describes in full, skipping sequences
// below StartSeq (the coordinator's flush front on resume and retry).
// Proto carries the sender's ProtocolVersion; workers reject mismatches.
type ShardRequest struct {
	Type     string       `json:"type"` // "run"
	Proto    int          `json:"proto"`
	Campaign CampaignSpec `json:"campaign"`
	Shard    int          `json:"shard"`
	Shards   int          `json:"shards"`
	StartSeq int          `json:"start_seq,omitempty"`
}

// Frame is one worker→coordinator message. Type selects the variant:
//
//   - "rec": one completed experiment; Seq is the record's global
//     sequence number and Rec the fully rendered JSONL profile line
//     (without trailing newline), byte-identical to what a
//     single-process JSONL sink would emit at that sequence.
//   - "progress": periodic heartbeat; Seq is the highest contiguous
//     sequence the shard has completed (the worker runs its shard in
//     order, so this is simply the last sequence done). Liveness signal:
//     a coordinator that stops seeing frames declares the shard stalled.
//   - "done": the shard finished; Records is the shard's total scenario
//     count (skipped-by-StartSeq included) and Summary the outcome tally
//     of the experiments this run executed.
//   - "error": the shard failed; Err carries the complaint.
//
// Every frame is the encoding/json rendering of this struct, one per
// line. Workers write rec frames with appendRecFrame, a fixed encoder
// that emits those same bytes without reflection, and batch them: the
// connection is flushed at every progress heartbeat, before the done or
// error frame, and whenever the write buffer fills. The coordinator
// decodes rec frames of that exact shape with decodeRecFrame, which
// accepts only what json.Unmarshal accepts and yields the same Frame.
type Frame struct {
	Type    string           `json:"type"`
	Seq     int              `json:"seq,omitempty"`
	Rec     json.RawMessage  `json:"rec,omitempty"`
	Records int              `json:"records,omitempty"`
	Summary *profile.Summary `json:"summary,omitempty"`
	Err     string           `json:"err,omitempty"`
}

// Frame and request type tags.
const (
	TypeRun      = "run"
	TypeRec      = "rec"
	TypeProgress = "progress"
	TypeDone     = "done"
	TypeError    = "error"
)

// maxLine bounds one protocol line. Record lines embed configuration
// error details, which are bounded by the mutated files; 16 MB matches
// the JSONL scanner's ceiling.
const maxLine = 16 * 1024 * 1024

// lineReader decodes line-delimited JSON messages: a worker reads its
// request with next, a coordinator its frames with nextFrame, which takes
// rec frames off the line without reflection.
type lineReader struct {
	sc *bufio.Scanner
}

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	return &lineReader{sc: sc}
}

// line returns the next non-empty line. It aliases the scanner's buffer
// and is valid until the next call. io.EOF reports a cleanly exhausted
// stream.
func (l *lineReader) line() ([]byte, error) {
	for l.sc.Scan() {
		if line := l.sc.Bytes(); len(line) > 0 {
			return line, nil
		}
	}
	if err := l.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// next decodes the next non-empty line into v. io.EOF reports a cleanly
// exhausted stream.
func (l *lineReader) next(v any) error {
	line, err := l.line()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("dist: decoding message: %w", err)
	}
	return nil
}

// nextFrame decodes the next non-empty line into f, overwriting every
// field. Rec frames in appendRecFrame's shape take decodeRecFrame's
// reflection-free path, and their f.Rec aliases the reader's buffer
// until the next call; every other line goes through json.Unmarshal.
func (l *lineReader) nextFrame(f *Frame) error {
	line, err := l.line()
	if err != nil {
		return err
	}
	if decodeRecFrame(line, f) {
		return nil
	}
	// Zero f first: json.Unmarshal merges into existing fields, and a
	// RawMessage appends into its old backing array, which may be a
	// previous line's buffer.
	*f = Frame{}
	if err := json.Unmarshal(line, f); err != nil {
		return fmt.Errorf("dist: decoding message: %w", err)
	}
	return nil
}

// recFramePrefix opens every rec frame with a non-zero sequence number;
// recFrameRec separates the sequence from the record.
const (
	recFramePrefix = `{"type":"rec","seq":`
	recFrameRec    = `,"rec":`
)

// maxRecFrameOverhead bounds the bytes a rec frame adds around its
// record line: prefix, a 20-byte int64, separator, '}' and '\n'.
const maxRecFrameOverhead = len(recFramePrefix) + 20 + len(recFrameRec) + 2

// appendRecFrame appends the rec frame for one record line, newline
// included. The bytes equal json.Marshal(Frame{Type: TypeRec, Seq: seq,
// Rec: line}) plus '\n' whenever line is compact, HTML-escaped JSON — as
// every profile.AppendJSONLRecord line is — because json.Marshal copies
// such a RawMessage verbatim. A zero seq is omitted, as omitempty does.
func appendRecFrame(dst []byte, seq int, line []byte) []byte {
	if seq == 0 {
		dst = append(dst, `{"type":"rec","rec":`...)
	} else {
		dst = append(dst, recFramePrefix...)
		dst = strconv.AppendInt(dst, int64(seq), 10)
		dst = append(dst, recFrameRec...)
	}
	dst = append(dst, line...)
	return append(dst, '}', '\n')
}

// writeRecFrame encodes one rec frame straight into bw's free space,
// flushing bw first when the frame might not fit.
func writeRecFrame(bw *bufio.Writer, seq int, line []byte) error {
	if bw.Available() < len(line)+maxRecFrameOverhead {
		if err := flushFrames(bw); err != nil {
			return err
		}
	}
	if _, err := bw.Write(appendRecFrame(bw.AvailableBuffer(), seq, line)); err != nil {
		return fmt.Errorf("dist: writing message: %w", err)
	}
	return nil
}

// flushFrames writes bw's buffered frames to the connection.
func flushFrames(bw *bufio.Writer) error {
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dist: writing message: %w", err)
	}
	return nil
}

// decodeRecFrame decodes line into f without reflection when it is a rec
// frame of exactly appendRecFrame's shape: the prefix, a canonical
// positive decimal sequence of at most 18 digits (so it cannot
// overflow), the separator, one valid JSON value without surrounding
// whitespace, and the closing brace. Such a line is a valid JSON object
// whose json.Unmarshal is exactly the Frame set here. Any other line —
// seq 0, other frame types, extra keys or spacing — reports false and
// leaves f untouched, for the caller to hand to json.Unmarshal. f.Rec
// aliases line.
func decodeRecFrame(line []byte, f *Frame) bool {
	if len(line) < len(recFramePrefix) || string(line[:len(recFramePrefix)]) != recFramePrefix {
		return false
	}
	rest := line[len(recFramePrefix):]
	if len(rest) == 0 || rest[0] < '1' || rest[0] > '9' {
		return false
	}
	seq, i := 0, 0
	for ; i < len(rest) && i <= 18 && '0' <= rest[i] && rest[i] <= '9'; i++ {
		seq = seq*10 + int(rest[i]-'0')
	}
	if i > 18 {
		return false
	}
	rest = rest[i:]
	if len(rest) < len(recFrameRec)+2 || string(rest[:len(recFrameRec)]) != recFrameRec || rest[len(rest)-1] != '}' {
		return false
	}
	rec := rest[len(recFrameRec) : len(rest)-1]
	if isJSONSpace(rec[0]) || isJSONSpace(rec[len(rec)-1]) || !json.Valid(rec) {
		return false
	}
	*f = Frame{Type: TypeRec, Seq: seq, Rec: rec}
	return true
}

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// writeMsg encodes v as one JSON line. Callers serialize access to w.
func writeMsg(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dist: encoding message: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("dist: writing message: %w", err)
	}
	return nil
}

// Validate rejects malformed shard requests before any campaign state is
// built.
func (r *ShardRequest) Validate() error {
	if r.Type != TypeRun {
		return fmt.Errorf("dist: unknown request type %q", r.Type)
	}
	if r.Proto != ProtocolVersion {
		if r.Proto == 0 {
			return fmt.Errorf("dist: request carries no protocol version (worker speaks v%d); coordinator predates versioned requests — upgrade it", ProtocolVersion)
		}
		return fmt.Errorf("dist: protocol version mismatch: request is v%d, worker speaks v%d", r.Proto, ProtocolVersion)
	}
	if r.Campaign.ExperimentTimeout < 0 || r.Campaign.PhaseTimeout < 0 {
		return fmt.Errorf("dist: negative watchdog timeout in shard request")
	}
	if r.Shards <= 0 || r.Shard < 0 || r.Shard >= r.Shards {
		return fmt.Errorf("dist: invalid shard %d of %d", r.Shard, r.Shards)
	}
	if r.StartSeq < 0 {
		return fmt.Errorf("dist: negative start sequence %d", r.StartSeq)
	}
	if r.Campaign.System == "" || r.Campaign.Plugin == "" {
		return fmt.Errorf("dist: shard request missing system or plugin")
	}
	return nil
}
