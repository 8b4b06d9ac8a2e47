package cprof

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"conferr/internal/profile"
)

// frameEncoder turns a batch of records into one encoded frame. All
// scratch — the raw and compressed payload buffers, the dictionary
// builders, the flate stream — is reused across frames, so steady-state
// frame encoding allocates nothing beyond what flate's internals retain.
// One encoder lives in the Writer and runs under its mutex.
type frameEncoder struct {
	raw    []byte // uncompressed payload
	comp   []byte // compressed payload (after the preamble in head)
	head   []byte // frame marker + preamble
	class  dictBuilder
	detail dictBuilder

	fw *flate.Writer
}

// encode renders one frame and returns the preamble and compressed
// payload (both valid until the next encode call).
func (e *frameEncoder) encode(system, generator string, recs []profile.Record, seqs []int) (head, comp []byte, err error) {
	// Pass 1: dictionaries, in first-appearance order.
	e.class.reset()
	e.detail.reset()
	for i := range recs {
		e.class.add(recs[i].Class)
		e.detail.add(recs[i].Detail)
	}

	// Pass 2: payload rows.
	raw := e.raw[:0]
	raw = e.class.append(raw)
	raw = e.detail.append(raw)
	prevSeq := seqs[0]
	prevID := ""
	prevDur := int64(0)
	for i := range recs {
		r := &recs[i]
		raw = binary.AppendUvarint(raw, uint64(seqs[i]-prevSeq))
		prevSeq = seqs[i]
		raw = binary.AppendUvarint(raw, uint64(r.Outcome))
		raw = binary.AppendUvarint(raw, uint64(e.class.index(r.Class)))
		p := commonPrefix(prevID, r.ScenarioID)
		raw = binary.AppendUvarint(raw, uint64(p))
		raw = appendString(raw, r.ScenarioID[p:])
		prevID = r.ScenarioID
		raw = appendString(raw, r.Description)
		raw = binary.AppendUvarint(raw, uint64(e.detail.index(r.Detail)))
		ns := r.Duration.Nanoseconds()
		raw = binary.AppendVarint(raw, ns-prevDur)
		prevDur = ns
	}
	e.raw = raw

	// Compress at flate.BestSpeed: the payload is already delta- and
	// dictionary-encoded, so higher levels buy a few percent of size for
	// a multiple of the encode cost.
	if e.fw == nil {
		// NewWriter fails only on an invalid level.
		e.fw, _ = flate.NewWriter(nil, flate.BestSpeed)
	}
	cw := (*compBuf)(&e.comp)
	e.comp = e.comp[:0]
	e.fw.Reset(cw)
	if _, err := e.fw.Write(raw); err != nil {
		return nil, nil, fmt.Errorf("cprof: compressing frame: %w", err)
	}
	if err := e.fw.Close(); err != nil {
		return nil, nil, fmt.Errorf("cprof: compressing frame: %w", err)
	}

	// Preamble.
	h := append(e.head[:0], frameMarker)
	h = appendString(h, system)
	h = appendString(h, generator)
	h = binary.AppendUvarint(h, uint64(len(recs)))
	h = binary.AppendUvarint(h, uint64(seqs[0]))
	h = binary.AppendUvarint(h, uint64(seqs[len(recs)-1]))
	h = binary.AppendUvarint(h, uint64(len(raw)))
	h = binary.AppendUvarint(h, uint64(len(e.comp)))
	h = binary.LittleEndian.AppendUint32(h, crc32.Checksum(e.comp, crcTable))
	e.head = h
	return h, e.comp, nil
}

// compBuf adapts the reusable compressed-payload slice into flate's
// io.Writer.
type compBuf []byte

func (b *compBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// dictBuilder assigns dense indices to a frame's distinct values of one
// string field, in first-appearance order. The map and backing slice
// are reused across frames.
type dictBuilder struct {
	idx    map[string]int
	values []string
}

func (d *dictBuilder) reset() {
	if d.idx == nil {
		d.idx = make(map[string]int, 16)
	} else {
		clear(d.idx)
	}
	d.values = d.values[:0]
}

func (d *dictBuilder) add(v string) {
	if _, ok := d.idx[v]; !ok {
		d.idx[v] = len(d.values)
		d.values = append(d.values, v)
	}
}

func (d *dictBuilder) index(v string) int { return d.idx[v] }

// append serializes the dictionary: uvarint count, then each value.
func (d *dictBuilder) append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.values)))
	for _, v := range d.values {
		buf = appendString(buf, v)
	}
	return buf
}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// commonPrefix returns the length of the longest common byte prefix.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
