package cprof

import (
	"bufio"
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"

	"conferr/internal/profile"
)

// scanReference is Scan as one goroutine reading and decoding frame by
// frame: the oracle the fan-out scan must match, entry for entry and
// error for error.
func scanReference(r io.Reader, fn func(profile.JSONLEntry) error) error {
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
	var dec frameDecoder
	frameNo := 0
	for {
		marker, err := br.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("cprof: reading frame marker: %w", err)
		}
		switch marker {
		case frameMarker:
		case indexMarker:
			return nil
		default:
			return fmt.Errorf("cprof: frame %d: unknown marker 0x%02x", frameNo, marker)
		}
		frameNo++
		pre, err := readPreamble(br)
		if err != nil {
			return fmt.Errorf("cprof: frame %d: %w", frameNo, err)
		}
		dec.comp = grow(dec.comp, pre.compLen)
		if _, err := io.ReadFull(br, dec.comp); err != nil {
			return fmt.Errorf("cprof: frame %d: reading payload: %w", frameNo, err)
		}
		batch, err := dec.decode(&pre, nil)
		for _, e := range batch {
			if ferr := fn(e); ferr != nil {
				return ferr
			}
		}
		if err != nil {
			return fmt.Errorf("cprof: frame %d: %w", frameNo, err)
		}
	}
}

// scanSeqOrderedReference is ScanSeqOrdered decoding each frame on the
// caller's goroutine when the replay first needs it.
func scanSeqOrderedReference(ra io.ReaderAt, size int64, fn func(profile.JSONLEntry) error) error {
	frames, _, err := ReadIndex(ra, size)
	if err != nil {
		return err
	}
	type campaignKey struct{ system, generator string }
	var order []campaignKey
	groups := make(map[campaignKey][]FrameInfo)
	for _, fi := range frames {
		k := campaignKey{fi.System, fi.Generator}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], fi)
	}
	dec := &frameDecoder{}
	decodeAt := func(fi FrameInfo, fn func(profile.JSONLEntry) error) error {
		batch, err := decodeFrameAt(ra, fi, dec, nil)
		for _, e := range batch {
			if ferr := fn(e); ferr != nil {
				return ferr
			}
		}
		return err
	}
	for _, k := range order {
		frames := groups[k]
		if ascending(frames) {
			for _, fi := range frames {
				if err := decodeAt(fi, fn); err != nil {
					return err
				}
			}
			continue
		}
		h := make(frameHeap, 0, len(frames))
		for i := range frames {
			h = append(h, &frameCursor{fi: frames[i], seq: frames[i].FirstSeq, ord: i})
		}
		heap.Init(&h)
		for h.Len() > 0 {
			cur := h[0]
			if !cur.decoded {
				cur.decoded = true
				err := decodeAt(cur.fi, func(e profile.JSONLEntry) error {
					cur.entries = append(cur.entries, e)
					return nil
				})
				if err != nil {
					return err
				}
				if len(cur.entries) == 0 {
					heap.Pop(&h)
					continue
				}
				cur.seq = cur.entries[0].Seq
				heap.Fix(&h, 0)
				continue
			}
			if err := fn(cur.entries[cur.next]); err != nil {
				return err
			}
			cur.next++
			if cur.next >= len(cur.entries) {
				heap.Pop(&h)
				continue
			}
			cur.seq = cur.entries[cur.next].Seq
			heap.Fix(&h, 0)
		}
	}
	return nil
}

// scanned is what one scan delivered: its entries and its error text.
type scanned struct {
	entries []profile.JSONLEntry
	err     string
}

func scanWith(scan func(fn func(profile.JSONLEntry) error) error) scanned {
	var s scanned
	if err := scan(func(e profile.JSONLEntry) error {
		s.entries = append(s.entries, e)
		return nil
	}); err != nil {
		s.err = err.Error()
	}
	return s
}

// sameScans fails t unless Scan and ScanSeqOrdered deliver over data
// exactly what their references do. It returns the ordered scan's
// result.
func sameScans(t *testing.T, name string, data []byte) scanned {
	t.Helper()
	size := int64(len(data))
	for _, c := range []struct {
		what      string
		got, want func(fn func(profile.JSONLEntry) error) error
	}{
		{"Scan",
			func(fn func(profile.JSONLEntry) error) error { return Scan(bytes.NewReader(data), fn) },
			func(fn func(profile.JSONLEntry) error) error { return scanReference(bytes.NewReader(data), fn) }},
		{"ScanSeqOrdered",
			func(fn func(profile.JSONLEntry) error) error { return ScanSeqOrdered(bytes.NewReader(data), size, fn) },
			func(fn func(profile.JSONLEntry) error) error {
				return scanSeqOrderedReference(bytes.NewReader(data), size, fn)
			}},
	} {
		got, want := scanWith(c.got), scanWith(c.want)
		if got.err != want.err {
			t.Errorf("%s, %s: error %q, reference %q", name, c.what, got.err, want.err)
		}
		if !slices.Equal(got.entries, want.entries) {
			t.Errorf("%s, %s: %d entries, reference %d (or they differ)", name, c.what, len(got.entries), len(want.entries))
		}
		if c.what == "ScanSeqOrdered" {
			return got
		}
	}
	panic("unreachable")
}

// shardedCampaign writes recs as one campaign through n shard sub-sinks,
// the sharded bypass's layout: shard k writes its stride k, k+n, …,
// taking turns with the others but writing 7(k+1) records a turn, so
// frames land in the file out of sequence order.
func shardedCampaign(t *testing.T, w *Writer, system string, recs []profile.Record, n int) {
	t.Helper()
	base := w.Sink(system, "typo")
	shards := make([]profile.Sink, n)
	next := make([]int, n)
	for k := range shards {
		shards[k] = base.ShardSink(k, n)
		next[k] = k
	}
	for left := len(recs); left > 0; {
		for k, s := range shards {
			for j := 0; j < 7*(k+1) && next[k] < len(recs); j++ {
				if err := s.Write(recs[next[k]]); err != nil {
					t.Fatal(err)
				}
				next[k] += n
				left--
			}
		}
	}
}

// fanFixtures are the cprof files the fan-out scans are held to: an
// ordered campaign, a campaign written through 4 shard sub-sinks, and
// both in one file.
func fanFixtures(t *testing.T) map[string][]byte {
	recs := synthRecords(1000)
	out := map[string][]byte{"ordered": writeCampaign(t, recs, 64)}

	var sharded bytes.Buffer
	w := NewWriter(&sharded)
	w.FrameRecords = 32
	shardedCampaign(t, w, "nginx", recs, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out["sharded at 4"] = sharded.Bytes()

	var mixed bytes.Buffer
	w = NewWriter(&mixed)
	w.FrameRecords = 16
	s := w.Sink("postgres", "structural")
	for _, r := range recs[:300] {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	shardedCampaign(t, w, "nginx", recs[300:], 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out["ordered then sharded"] = mixed.Bytes()
	return out
}

// TestScanMatchesReference: on ordered, sharded and mixed files, whole,
// with a CRC-corrupt middle frame, and torn inside a frame, the fan-out
// scans deliver their references' entries and errors.
func TestScanMatchesReference(t *testing.T) {
	for name, data := range fanFixtures(t) {
		got := sameScans(t, name, data)
		if got.err != "" || len(got.entries) != 1000 {
			t.Fatalf("%s: %d entries, error %q", name, len(got.entries), got.err)
		}

		frames, _, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if name == "sharded at 4" && ascending(frames) {
			t.Fatal("the sharded fixture's frames do not overlap: the k-way merge goes untested")
		}
		mid := frames[len(frames)/2]
		corrupt := bytes.Clone(data)
		corrupt[mid.Off+mid.Len-3] ^= 0x40
		if got := sameScans(t, name+", corrupt middle frame", corrupt); !bytes.Contains([]byte(got.err), []byte("payload CRC mismatch")) {
			t.Errorf("%s, corrupt middle frame: error %q", name, got.err)
		}

		last := frames[len(frames)-1]
		for _, cut := range []int64{mid.Off + mid.Len/2, last.Off + 1, last.Off + last.Len - 1} {
			sameScans(t, fmt.Sprintf("%s, torn at %d", name, cut), data[:cut])
		}
	}
}

// TestScanStopsAtFnError: fn's error stops Scan and ScanSeqOrdered (both
// paths) at its record, at GOMAXPROCS 1, 2 and 8, and no worker
// outlives the call.
func TestScanStopsAtFnError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, data := range fanFixtures(t) {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			before := runtime.NumGoroutine()
			for _, k := range []int{0, 1, 333, 999} {
				for what, scan := range map[string]func(fn func(profile.JSONLEntry) error) error{
					"Scan": func(fn func(profile.JSONLEntry) error) error { return Scan(bytes.NewReader(data), fn) },
					"ScanSeqOrdered": func(fn func(profile.JSONLEntry) error) error {
						return ScanSeqOrdered(bytes.NewReader(data), int64(len(data)), fn)
					},
				} {
					stop := fmt.Errorf("stop at %d", k)
					n := 0
					err := scan(func(profile.JSONLEntry) error {
						if n == k {
							return stop
						}
						n++
						return nil
					})
					if !errors.Is(err, stop) || n != k {
						t.Errorf("%s, %s, GOMAXPROCS %d, stop at %d: error %v after %d records", name, what, procs, k, err, n)
					}
				}
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%s, GOMAXPROCS %d: %d goroutines, %d before the scans", name, procs, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestFnErrorReadsTheSameInEveryFormat: one callback error comes back
// verbatim from every reader of one campaign: ScanJSONL over its JSONL,
// Scan and ScanSeqOrdered over an ordered cprof and over one written
// through 4 shard sub-sinks (ScanSeqOrdered's k-way path).
func TestFnErrorReadsTheSameInEveryFormat(t *testing.T) {
	recs := synthRecords(1000)
	ordered := writeCampaign(t, recs, 64)
	var sharded bytes.Buffer
	w := NewWriter(&sharded)
	w.FrameRecords = 32
	shardedCampaign(t, w, "nginx", recs, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var jsonl []byte
	if err := Scan(bytes.NewReader(ordered), func(e profile.JSONLEntry) error {
		jsonl = profile.AppendJSONLRecord(jsonl, e.System, e.Generator, e.Seq, e.Record)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	stop := errors.New("callback refused record 333")
	fn := func(e profile.JSONLEntry) error {
		if e.Seq == 333 {
			return stop
		}
		return nil
	}
	for what, scan := range map[string]func() error{
		"ScanJSONL":               func() error { return profile.ScanJSONL(bytes.NewReader(jsonl), fn) },
		"Scan, ordered":           func() error { return Scan(bytes.NewReader(ordered), fn) },
		"Scan, sharded":           func() error { return Scan(bytes.NewReader(sharded.Bytes()), fn) },
		"ScanSeqOrdered, ordered": func() error { return ScanSeqOrdered(bytes.NewReader(ordered), int64(len(ordered)), fn) },
		"ScanSeqOrdered, sharded": func() error {
			return ScanSeqOrdered(bytes.NewReader(sharded.Bytes()), int64(sharded.Len()), fn)
		},
	} {
		if err := scan(); err != stop {
			t.Errorf("%s: error %v, want the callback's %q verbatim", what, err, stop)
		}
	}
}
