package cprof

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"conferr/internal/profile"
)

// Index block layout (written by Writer.Close, pointed at by the
// trailer):
//
//	index    = 0x02
//	           uvarint nCampaigns, nCampaigns × (str system, str generator)
//	           uvarint nFrames, nFrames × frameRow
//	frameRow = uvarint campaignIdx
//	           uvarint offDelta      (vs previous row's Off; first row absolute)
//	           uvarint len, count, firstSeq, lastSeq
//
// Frame rows are in file order, so offsets are strictly increasing and
// delta-encode well; a thousand-frame index is a few KB.

// appendIndex serializes the index block for frames (in file order).
func appendIndex(buf []byte, frames []FrameInfo) []byte {
	var camp dictBuilder
	camp.reset()
	for i := range frames {
		camp.add(frames[i].System + "\x00" + frames[i].Generator)
	}
	buf = append(buf, indexMarker)
	buf = binary.AppendUvarint(buf, uint64(len(camp.values)))
	for _, v := range camp.values {
		sys, gen, _ := bytes.Cut([]byte(v), []byte{0})
		buf = appendString(buf, string(sys))
		buf = appendString(buf, string(gen))
	}
	buf = binary.AppendUvarint(buf, uint64(len(frames)))
	prevOff := int64(0)
	for i := range frames {
		f := &frames[i]
		buf = binary.AppendUvarint(buf, uint64(camp.index(f.System+"\x00"+f.Generator)))
		buf = binary.AppendUvarint(buf, uint64(f.Off-prevOff))
		prevOff = f.Off
		buf = binary.AppendUvarint(buf, uint64(f.Len))
		buf = binary.AppendUvarint(buf, uint64(f.Count))
		buf = binary.AppendUvarint(buf, uint64(f.FirstSeq))
		buf = binary.AppendUvarint(buf, uint64(f.LastSeq))
	}
	return buf
}

// parseIndex decodes an index block (including its marker byte).
func parseIndex(b []byte) ([]FrameInfo, error) {
	if len(b) == 0 || b[0] != indexMarker {
		return nil, fmt.Errorf("%w: index marker missing", errCorrupt)
	}
	c := cursor{b: b, pos: 1}
	nCamp := int(c.uvarint())
	if c.err != nil || nCamp < 0 || nCamp > len(b) {
		return nil, fmt.Errorf("%w: index campaign count", errCorrupt)
	}
	type campaign struct{ system, generator string }
	camps := make([]campaign, nCamp)
	for i := range camps {
		camps[i].system = string(c.str())
		camps[i].generator = string(c.str())
	}
	nFrames := int(c.uvarint())
	if c.err != nil || nFrames < 0 || nFrames > len(b) {
		return nil, fmt.Errorf("%w: index frame count", errCorrupt)
	}
	frames := make([]FrameInfo, nFrames)
	prevOff := int64(0)
	for i := range frames {
		f := &frames[i]
		ci := int(c.uvarint())
		f.Off = prevOff + int64(c.uvarint())
		prevOff = f.Off
		f.Len = int64(c.uvarint())
		f.Count = int(c.uvarint())
		f.FirstSeq = int(c.uvarint())
		f.LastSeq = int(c.uvarint())
		if c.err != nil {
			return nil, fmt.Errorf("index frame row %d: %w", i, c.err)
		}
		if ci >= nCamp {
			return nil, fmt.Errorf("%w: index frame row %d campaign %d of %d", errCorrupt, i, ci, nCamp)
		}
		f.System, f.Generator = camps[ci].system, camps[ci].generator
	}
	return frames, nil
}

// ReadIndex returns the file's frame index: from the trailer when the
// file was closed cleanly, otherwise rebuilt by walking the frame
// preambles — no payload is inflated either way. The second result
// reports whether a trailer index was present; a rebuilt index means
// the writer never completed (crashed campaign) and the returned frames
// are the readable prefix the walk recovered.
func ReadIndex(ra io.ReaderAt, size int64) ([]FrameInfo, bool, error) {
	frames, err := readTrailerIndex(ra, size)
	if err == nil {
		return frames, true, nil
	}
	if !errors.Is(err, errNoTrailer) {
		return nil, false, err
	}
	frames, _, err = walkFrames(ra, size)
	return frames, false, err
}

// errNoTrailer reports a file without a (valid) trailer — normal for a
// stream cut off before Close.
var errNoTrailer = errors.New("cprof: no trailer index")

// readTrailerIndex loads and validates the trailer-pointed index block.
func readTrailerIndex(ra io.ReaderAt, size int64) ([]FrameInfo, error) {
	if size < int64(len(fileMagic)+trailerLen) {
		return nil, errNoTrailer
	}
	var tr [trailerLen]byte
	if _, err := ra.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("cprof: reading trailer: %w", err)
	}
	if string(tr[12:16]) != trailerMagic {
		return nil, errNoTrailer
	}
	idxOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	crc := binary.LittleEndian.Uint32(tr[8:12])
	idxLen := size - trailerLen - idxOff
	if idxOff < int64(len(fileMagic)) || idxLen < 1 || idxLen > maxFramePayload {
		return nil, fmt.Errorf("%w: trailer index offset %d in %d-byte file", errCorrupt, idxOff, size)
	}
	idx := make([]byte, idxLen)
	if _, err := ra.ReadAt(idx, idxOff); err != nil {
		return nil, fmt.Errorf("cprof: reading index: %w", err)
	}
	if got := crc32.Checksum(idx, crcTable); got != crc {
		return nil, fmt.Errorf("%w: index CRC mismatch (got %08x, want %08x)", errCorrupt, got, crc)
	}
	return parseIndex(idx)
}

// walkFrames rebuilds frame infos by reading preambles sequentially and
// skipping payloads (verifying their CRCs, never inflating). It stops
// cleanly at the index marker, at EOF, and at a torn or corrupt tail
// frame — the returned frames are the file's valid prefix, and end is
// the offset just past it.
func walkFrames(ra io.ReaderAt, size int64) (frames []FrameInfo, end int64, err error) {
	cr := &countReader{r: bufio.NewReaderSize(io.NewSectionReader(ra, 0, size), 256*1024)}
	var magic [len("cprof\x01")]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, 0, fmt.Errorf("cprof: reading magic: %w", err)
	}
	if !bytes.Equal(magic[:], fileMagic) {
		return nil, 0, fmt.Errorf("cprof: bad magic %q", magic[:])
	}
	end = cr.n
	var comp []byte
	for {
		marker, err := cr.ReadByte()
		if err == io.EOF {
			return frames, end, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("cprof: reading frame marker: %w", err)
		}
		if marker != frameMarker {
			// The index block (or garbage): frames end here.
			return frames, end, nil
		}
		off := end
		pre, perr := readPreamble(cr)
		if perr != nil {
			if errors.Is(perr, io.ErrUnexpectedEOF) || errors.Is(perr, errCorrupt) {
				return frames, end, nil // torn tail
			}
			return nil, 0, fmt.Errorf("cprof: frame at %d: %w", off, perr)
		}
		comp = grow(comp, pre.compLen)
		if _, err := io.ReadFull(cr, comp); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || err == io.EOF {
				return frames, end, nil // torn tail
			}
			return nil, 0, fmt.Errorf("cprof: frame at %d: %w", off, err)
		}
		if crc32.Checksum(comp, crcTable) != pre.crc {
			return frames, end, nil // torn or corrupt tail
		}
		frames = append(frames, FrameInfo{
			System: pre.system, Generator: pre.generator,
			Off: off, Len: cr.n - off,
			Count:    pre.count,
			FirstSeq: pre.firstSeq, LastSeq: pre.lastSeq,
		})
		end = cr.n
	}
}

// byteReader is what preamble decoding needs: buffered byte-at-a-time
// varint reads plus bulk reads.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// countReader tracks the logical read position through a buffered
// reader, so frame walks know exact offsets without re-deriving encoded
// lengths.
type countReader struct {
	r byteReader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// decodeFrameAt reads one indexed frame via pread and appends its
// records to dst; on an error, dst holds the records decoded before it.
func decodeFrameAt(ra io.ReaderAt, fi FrameInfo, dec *frameDecoder, dst []profile.JSONLEntry) ([]profile.JSONLEntry, error) {
	if fi.Len < 2 || fi.Len > maxFramePayload {
		return dst, fmt.Errorf("%w: indexed frame length %d at %d", errCorrupt, fi.Len, fi.Off)
	}
	buf := grow(dec.frame, int(fi.Len))
	dec.frame = buf
	if _, err := ra.ReadAt(buf, fi.Off); err != nil {
		return dst, fmt.Errorf("cprof: reading frame at %d: %w", fi.Off, err)
	}
	if buf[0] != frameMarker {
		return dst, fmt.Errorf("%w: no frame marker at indexed offset %d", errCorrupt, fi.Off)
	}
	cr := &countReader{r: bytes.NewReader(buf[1:])}
	pre, err := readPreamble(cr)
	if err != nil {
		return dst, fmt.Errorf("cprof: frame at %d: %w", fi.Off, err)
	}
	payloadOff := 1 + cr.n
	if payloadOff+int64(pre.compLen) != fi.Len {
		return dst, fmt.Errorf("%w: frame at %d: index len %d vs preamble %d",
			errCorrupt, fi.Off, fi.Len, payloadOff+int64(pre.compLen))
	}
	dec.comp = buf[payloadOff:fi.Len]
	if dst, err = dec.decode(&pre, dst); err != nil {
		return dst, fmt.Errorf("cprof: frame at %d: %w", fi.Off, err)
	}
	return dst, nil
}
