// Package dist distributes ConfErr campaigns across worker processes and
// machines. A campaign worker daemon (Server, hosted by cmd/sutd -serve)
// accepts shard specifications over a line-delimited JSON TCP protocol,
// re-derives its slice of the faultload locally — generation is a pure
// function of (Seed, shard k of n), so no scenario ever crosses the wire
// — and streams its records back as JSONL profile lines. A Coordinator
// schedules shards across workers, retries failed or stalled shards on
// other workers with capped exponential backoff, checks that every line
// is a record of its campaign, and merges the shard streams into one
// deterministic, gap-checked profile that is byte-identical to a
// single-process run of the same campaign. Resume is nearly free: the
// merged output is a gap-free prefix of the stream, and a resumed
// coordinator re-requests each shard from where the output's intact
// records end.
package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	// record lines — for campaigns whose output is a scorecard, not a
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
// without them. Version 3 sends each record as its bare JSONL profile
// line instead of wrapping it in a "rec" frame that repeated its
// sequence number, and progress frames carry no sequence.
const ProtocolVersion = 3

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

// Frame is a worker→coordinator control message. A worker answers a
// request with lines of two kinds: each record as its JSONL profile line,
// byte-identical to what a single-process JSONL sink writes at that
// sequence (the coordinator reads the sequence from the line itself),
// and control frames, the encoding/json rendering of this struct, which
// open with {"type":. Type selects the variant:
//
//   - "progress": periodic heartbeat, a liveness signal only: a
//     coordinator that stops seeing lines declares the shard stalled.
//   - "done": the shard finished; Records is the shard's total scenario
//     count (skipped-by-StartSeq included) and Summary the outcome tally
//     of the experiments this run executed.
//   - "error": the shard failed; Err carries the complaint.
//
// Workers batch record lines: the connection is flushed at every
// progress heartbeat, before the done or error frame, and whenever the
// write buffer fills.
type Frame struct {
	Type    string           `json:"type"`
	Records int              `json:"records,omitempty"`
	Summary *profile.Summary `json:"summary,omitempty"`
	Err     string           `json:"err,omitempty"`
}

// Frame and request type tags.
const (
	TypeRun      = "run"
	TypeProgress = "progress"
	TypeDone     = "done"
	TypeError    = "error"
)

// maxLine bounds one protocol line. Record lines embed configuration
// error details, which are bounded by the mutated files; 16 MB matches
// the JSONL scanner's ceiling.
const maxLine = 16 * 1024 * 1024

// lineReader splits a connection into lines: a worker decodes its
// request with next, a coordinator classifies each line with
// recordOpening.decodeFrame.
type lineReader struct {
	sc *bufio.Scanner
}

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	sc.Split(wholeLines)
	return &lineReader{sc: sc}
}

// wholeLines is bufio.ScanLines without a last, unterminated line: a
// peer that dies mid-line has closed the connection, not sent a line.
func wholeLines(data []byte, atEOF bool) (int, []byte, error) {
	if bytes.IndexByte(data, '\n') < 0 {
		return 0, nil, nil
	}
	return bufio.ScanLines(data, atEOF)
}

// line returns the next non-empty line. It aliases the scanner's buffer
// and is valid until the next call. io.EOF reports the end of the
// stream's whole lines.
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

// controlPrefix opens every control frame: Frame's Type is its first
// field.
const controlPrefix = `{"type":`

// recordOpening is what every record line of one campaign opens with,
// {"system":S,"generator":P,"seq":, rendered by
// profile.AppendJSONLOpening, the helper AppendJSONLRecord opens each
// line with.
type recordOpening struct {
	open     []byte
	campaign string // system/generator, for errors
}

func newRecordOpening(spec CampaignSpec) recordOpening {
	return recordOpening{
		open:     profile.AppendJSONLOpening(nil, spec.System, spec.Plugin),
		campaign: spec.System + "/" + spec.Plugin,
	}
}

// decodeFrame classifies one line a worker sent. A control frame is
// decoded into f, overwriting it, and rec is false. Any other line must
// be a record of o's campaign: o.open, the sequence number as a
// canonical decimal of at most 18 digits (so it cannot overflow), a
// comma, and valid JSON throughout. Its sequence number is returned with
// rec true; the line is checked, not copied. Everything else is an error
// naming the campaign and quoting the line's first 64 bytes.
func (o recordOpening) decodeFrame(line []byte, f *Frame) (seq int, rec bool, err error) {
	if bytes.HasPrefix(line, []byte(controlPrefix)) {
		// Zero f first: json.Unmarshal merges into what it holds.
		*f = Frame{}
		if err := json.Unmarshal(line, f); err != nil {
			return 0, false, fmt.Errorf("dist: decoding message: %w", err)
		}
		return 0, false, nil
	}
	if !bytes.HasPrefix(line, o.open) {
		return 0, false, o.foreign(line)
	}
	rest := line[len(o.open):]
	i := 0
	for ; i < len(rest) && i <= 18 && '0' <= rest[i] && rest[i] <= '9'; i++ {
		seq = seq*10 + int(rest[i]-'0')
	}
	if i == 0 || i > 18 || (i > 1 && rest[0] == '0') || i == len(rest) || rest[i] != ',' || !json.Valid(line) {
		return 0, false, o.foreign(line)
	}
	return seq, true, nil
}

func (o recordOpening) foreign(line []byte) error {
	return fmt.Errorf("dist: worker sent a line that is no record of %s: %q", o.campaign, line[:min(len(line), 64)])
}

// writeRecord appends one record line and its newline to bw, which
// writes to the connection whenever it fills.
func writeRecord(bw *bufio.Writer, line []byte) error {
	if _, err := bw.Write(line); err != nil {
		return fmt.Errorf("dist: writing message: %w", err)
	}
	if err := bw.WriteByte('\n'); err != nil {
		return fmt.Errorf("dist: writing message: %w", err)
	}
	return nil
}

// flushFrames writes bw's buffered lines to the connection.
func flushFrames(bw *bufio.Writer) error {
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dist: writing message: %w", err)
	}
	return nil
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
