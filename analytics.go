package conferr

import (
	"io"

	"conferr/internal/profile"
	"conferr/internal/profile/cprof"
)

// Streaming analytics and the compact profile format, re-exported for
// API users. A `.cprof` file carries the same entries as a JSONL
// profile in dictionary-compressed, delta-encoded, flate-framed blocks
// with a trailer index — roughly an order of magnitude smaller and
// faster to re-scan; see internal/profile/cprof for the format spec.
type (
	// StreamStats folds a record stream of any size into the paper's
	// report shapes (Tables 1-3, Figure 3, scorecards) in memory
	// proportional to the number of campaigns, not records.
	StreamStats = profile.StreamStats
	// CprofWriter appends cprof frames to a stream; its Sink method is
	// the compact counterpart of NewJSONLSink.
	CprofWriter = cprof.Writer
	// CprofFile is a profile output file with a flush/sync/close
	// lifecycle, the stack behind every CLI profile writer. CreateCprof
	// makes a cprof one, whose W is its frame writer; the CLI opens any
	// path through cprof.OpenPath (or cprof.ResumePath), where a name
	// not ending in .cprof gets JSONL and a nil W. Close(false) writes
	// every record so far, unfinished frames cut short, and no trailer.
	CprofFile = cprof.File
)

// NewStreamStats returns an empty analytics fold. key, when non-nil,
// groups injected records for Figure 3 banding (e.g. wrap
// TypoDirectiveKey over the scenario ID); nil disables banding.
func NewStreamStats(key func(Record) string) *StreamStats {
	return profile.NewStreamStats(key)
}

// NewCprofWriter returns a writer appending cprof frames to w
// (typically buffered); Close writes the frame index and trailer.
func NewCprofWriter(w io.Writer) *CprofWriter { return cprof.NewWriter(w) }

// CreateCprof creates (or truncates) a cprof profile file.
func CreateCprof(path string) (*CprofFile, error) { return cprof.Create(path) }

// ScanProfilePath streams the profile at path, of either format (sniffed
// by content, not extension), entry by entry to fn, in file order; "-"
// reads stdin.
func ScanProfilePath(path string, fn func(JSONLEntry) error) error {
	return cprof.ScanPath(path, fn)
}

// ScanCprofSeqOrdered replays a cprof file in canonical order —
// campaigns by first appearance, records by sequence — merging
// shard-interleaved frames; the order that makes conversion to JSONL
// byte-identical to a directly written stream.
func ScanCprofSeqOrdered(path string, fn func(JSONLEntry) error) error {
	return cprof.ScanFileSeqOrdered(path, fn)
}

// CprofToJSONL renders a cprof file as canonical JSONL on w in
// canonical order — the lossless cprof→JSONL conversion.
func CprofToJSONL(path string, w io.Writer) error { return cprof.ToJSONL(path, w) }

// JSONLToCprof converts a JSONL stream into cprof frames on the writer
// (whose Close the caller owns) — the lossless JSONL→cprof conversion.
func JSONLToCprof(r io.Reader, w *CprofWriter) error { return cprof.FromJSONL(r, w) }
