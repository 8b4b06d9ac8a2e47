package cprof

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"conferr/internal/profile"
)

// errCorrupt is the base error for malformed frame payloads; scanners
// wrap it with the frame's position.
var errCorrupt = errors.New("cprof: corrupt frame payload")

// preamble is the decoded uncompressed frame header.
type preamble struct {
	system    string
	generator string
	count     int
	firstSeq  int
	lastSeq   int
	rawLen    int
	compLen   int
	crc       uint32
}

// Scan streams a cprof stream frame by frame to fn, in file order,
// without materializing anything — the binary counterpart of
// profile.ScanJSONL, with the same callback shape. Decoding fans out:
// the caller's goroutine reads each frame's bytes, GOMAXPROCS workers
// check and inflate them (see profile.Fan), and fn runs on the caller's
// goroutine, in file order. A non-nil error from fn stops the scan and
// is returned verbatim, as by every profile reader. File order equals
// sequence order for files written by a single ordered sink (matrix
// stream-out, dist merge); files written through the sharded bypass
// interleave their shards' frames — use ScanFileSeqOrdered when global
// sequence order matters.
// The scan stops cleanly at the index block, so it works on a plain
// io.Reader (a pipe, stdin) with no seeking.
func Scan(r io.Reader, fn func(profile.JSONLEntry) error) error {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 256*1024)
	}
	var magic [len("cprof\x01")]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("cprof: reading magic: %w", err)
	}
	if !bytes.Equal(magic[:], fileMagic) {
		return fmt.Errorf("cprof: bad magic %q", magic[:])
	}
	frameNo := 0
	cut := func(u *frameUnit) (bool, error) {
		marker, err := br.ReadByte()
		if err == io.EOF {
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("cprof: reading frame marker: %w", err)
		}
		switch marker {
		case frameMarker:
		case indexMarker:
			// Frames precede the index; the sequential scan is complete.
			return false, nil
		default:
			return false, fmt.Errorf("cprof: frame %d: unknown marker 0x%02x", frameNo, marker)
		}
		frameNo++
		pre, err := readPreamble(br)
		if err != nil {
			return false, fmt.Errorf("cprof: frame %d: %w", frameNo, err)
		}
		u.no, u.pre = frameNo, pre
		u.dec.comp = grow(u.dec.comp, pre.compLen)
		if _, err := io.ReadFull(br, u.dec.comp); err != nil {
			return false, fmt.Errorf("cprof: frame %d: reading payload: %w", frameNo, err)
		}
		return true, nil
	}
	decode := func(u *frameUnit, dst []profile.JSONLEntry) ([]profile.JSONLEntry, error) {
		dst, err := u.dec.decode(&u.pre, dst)
		if err != nil {
			err = fmt.Errorf("cprof: frame %d: %w", u.no, err)
		}
		return dst, err
	}
	return profile.FanEach(profile.NewFan(cut, decode), fn)
}

// frameUnit is one frame of a fan-out scan, with the decoder scratch
// that is reused for every frame the unit carries.
type frameUnit struct {
	no  int       // Scan: the frame's 1-based number in the file
	pre preamble  // Scan: its preamble; the payload is in dec.comp
	fi  FrameInfo // indexed scans: where the frame lies
	dec frameDecoder
}

// readPreamble decodes a frame preamble (the marker byte already
// consumed) from a buffered reader.
func readPreamble(br byteReader) (preamble, error) {
	var pre preamble
	var err error
	if pre.system, err = readLenString(br); err != nil {
		return pre, fmt.Errorf("preamble system: %w", err)
	}
	if pre.generator, err = readLenString(br); err != nil {
		return pre, fmt.Errorf("preamble generator: %w", err)
	}
	fields := [5]*int{&pre.count, &pre.firstSeq, &pre.lastSeq, &pre.rawLen, &pre.compLen}
	for i, p := range fields {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return pre, fmt.Errorf("preamble field %d: %w", i, eofToUnexpected(err))
		}
		*p = int(v)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(br, crcb[:]); err != nil {
		return pre, fmt.Errorf("preamble crc: %w", err)
	}
	pre.crc = binary.LittleEndian.Uint32(crcb[:])
	if pre.count <= 0 || pre.rawLen <= 0 || pre.compLen <= 0 ||
		pre.rawLen > maxFramePayload || pre.compLen > maxFramePayload ||
		pre.lastSeq < pre.firstSeq {
		return pre, fmt.Errorf("%w: implausible preamble (count=%d raw=%d comp=%d seqs=%d..%d)",
			errCorrupt, pre.count, pre.rawLen, pre.compLen, pre.firstSeq, pre.lastSeq)
	}
	return pre, nil
}

// readLenString reads a uvarint-length-prefixed string.
func readLenString(br byteReader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", eofToUnexpected(err)
	}
	if n > 1<<20 {
		return "", fmt.Errorf("%w: string length %d", errCorrupt, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// eofToUnexpected maps a clean EOF mid-structure to ErrUnexpectedEOF, so
// a torn tail frame reads as truncation, not as end of file.
func eofToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// grow returns b resized to n, reallocating only when capacity is short.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// frameDecoder holds the reusable scratch of a frame decode: the
// compressed and inflated payload buffers, the per-frame dictionaries,
// the scenario-ID front-coding buffer, and the flate stream.
type frameDecoder struct {
	frame   []byte // whole-frame pread scratch (random-access decodes)
	comp    []byte
	raw     []byte
	classes []string
	details []string
	id      []byte

	compRd bytes.Reader
	fr     io.ReadCloser
}

// decode checks, inflates, and appends to dst the records of one frame
// whose compressed payload sits in d.comp. On an error, dst holds the
// records decoded before it.
func (d *frameDecoder) decode(pre *preamble, dst []profile.JSONLEntry) ([]profile.JSONLEntry, error) {
	if got := crc32.Checksum(d.comp, crcTable); got != pre.crc {
		return dst, fmt.Errorf("%w: payload CRC mismatch (got %08x, want %08x)", errCorrupt, got, pre.crc)
	}
	d.compRd.Reset(d.comp)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.compRd)
	} else if err := d.fr.(flate.Resetter).Reset(&d.compRd, nil); err != nil {
		return dst, fmt.Errorf("cprof: resetting flate: %w", err)
	}
	d.raw = grow(d.raw, pre.rawLen)
	if _, err := io.ReadFull(d.fr, d.raw); err != nil {
		return dst, fmt.Errorf("cprof: inflating payload: %w", err)
	}

	// Every record takes at least a byte of payload, which bounds what
	// a corrupt count can make this reserve.
	dst = slices.Grow(dst, min(pre.count, len(d.raw)))
	c := cursor{b: d.raw}
	var err error
	if d.classes, err = c.dict(d.classes[:0]); err != nil {
		return dst, fmt.Errorf("class dictionary: %w", err)
	}
	if d.details, err = c.dict(d.details[:0]); err != nil {
		return dst, fmt.Errorf("detail dictionary: %w", err)
	}
	d.id = d.id[:0]
	seq := pre.firstSeq
	var dur int64
	e := profile.JSONLEntry{System: pre.system, Generator: pre.generator}
	for i := 0; i < pre.count; i++ {
		seq += int(c.uvarint())
		outcome := profile.Outcome(c.uvarint())
		classIdx := int(c.uvarint())
		p := int(c.uvarint())
		suffix := c.str()
		desc := c.str()
		detailIdx := int(c.uvarint())
		dur += c.varint()
		if c.err != nil {
			return dst, fmt.Errorf("record %d: %w", i, c.err)
		}
		if classIdx >= len(d.classes) || detailIdx >= len(d.details) ||
			p > len(d.id) || outcome < profile.DetectedAtStartup || outcome > profile.InfrastructureError {
			return dst, fmt.Errorf("%w: record %d out of range (class=%d detail=%d prefix=%d outcome=%d)",
				errCorrupt, i, classIdx, detailIdx, p, outcome)
		}
		d.id = append(d.id[:p], suffix...)
		e.Seq = seq
		e.Record = profile.Record{
			ScenarioID:  string(d.id),
			Class:       d.classes[classIdx],
			Description: string(desc),
			Outcome:     outcome,
			Detail:      d.details[detailIdx],
			Duration:    time.Duration(dur),
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// cursor walks a decoded payload with a sticky error, so row decoding
// reads as straight-line code with one check per record.
type cursor struct {
	b   []byte
	pos int
	err error
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		c.err = fmt.Errorf("%w: bad uvarint at %d", errCorrupt, c.pos)
		return 0
	}
	c.pos += n
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		c.err = fmt.Errorf("%w: bad varint at %d", errCorrupt, c.pos)
		return 0
	}
	c.pos += n
	return v
}

// str returns the next length-prefixed byte string, borrowed from the
// payload buffer — valid until the next frame decodes.
func (c *cursor) str() []byte {
	n := int(c.uvarint())
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b)-c.pos {
		c.err = fmt.Errorf("%w: string of %d bytes at %d overruns payload", errCorrupt, n, c.pos)
		return nil
	}
	s := c.b[c.pos : c.pos+n]
	c.pos += n
	return s
}

// dict decodes one frame dictionary into vals.
func (c *cursor) dict(vals []string) ([]string, error) {
	n := int(c.uvarint())
	if c.err != nil {
		return vals, c.err
	}
	if n < 0 || n > len(c.b) {
		return vals, fmt.Errorf("%w: dictionary of %d entries", errCorrupt, n)
	}
	for i := 0; i < n; i++ {
		s := c.str()
		if c.err != nil {
			return vals, c.err
		}
		vals = append(vals, string(s))
	}
	return vals, nil
}
