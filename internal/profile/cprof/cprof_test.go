package cprof

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"conferr/internal/profile"
)

// synthRecord fabricates record i of a campaign with the field shapes a
// real typo campaign produces: repetitive classes/outcomes/details, a
// shared scenario-ID prefix, and jittery durations.
func synthRecord(i int) profile.Record {
	classes := []string{"section", "directive", "parameter", "entry", "block"}
	details := []string{"", "connection refused", "config parse error", "wrong value observed"}
	return profile.Record{
		ScenarioID:  fmt.Sprintf("typo/omission/directive-%03d/pos-%d", i%40, i%7),
		Class:       classes[i%len(classes)],
		Description: fmt.Sprintf("drop character %d", i%9),
		Outcome:     profile.Outcome(i%int(profile.NotApplicable) + 1),
		Detail:      details[i%len(details)],
		Duration:    time.Duration(30_000+i*13) * time.Nanosecond,
	}
}

func synthRecords(n int) []profile.Record {
	recs := make([]profile.Record, n)
	for i := range recs {
		recs[i] = synthRecord(i)
	}
	return recs
}

// writeCampaign encodes records as one campaign into a cprof byte
// stream, with the writer's frame size dialed down so small tests still
// exercise multi-frame files.
func writeCampaign(t *testing.T, recs []profile.Record, frameRecords int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.FrameRecords = frameRecords
	s := w.Sink("nginx", "typo")
	for _, r := range recs {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func collect(t *testing.T, scan func(fn func(profile.JSONLEntry) error) error) []profile.JSONLEntry {
	t.Helper()
	var got []profile.JSONLEntry
	if err := scan(func(e profile.JSONLEntry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func checkEntries(t *testing.T, got []profile.JSONLEntry, recs []profile.Record) {
	t.Helper()
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, e := range got {
		if e.System != "nginx" || e.Generator != "typo" {
			t.Fatalf("record %d: campaign %s/%s", i, e.System, e.Generator)
		}
		if e.Seq != i {
			t.Fatalf("record %d: seq %d", i, e.Seq)
		}
		if e.Record != recs[i] {
			t.Fatalf("record %d diverged:\n got %+v\nwant %+v", i, e.Record, recs[i])
		}
	}
}

// TestRoundTripScan: encode → Scan yields the identical records, across
// frame boundaries and a partial final frame.
func TestRoundTripScan(t *testing.T) {
	recs := synthRecords(301)
	data := writeCampaign(t, recs, 64)
	got := collect(t, func(fn func(profile.JSONLEntry) error) error {
		return Scan(bytes.NewReader(data), fn)
	})
	checkEntries(t, got, recs)
}

// TestRoundTripEmpty: a writer closed without records is a valid file
// with zero frames.
func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, func(fn func(profile.JSONLEntry) error) error {
		return Scan(bytes.NewReader(buf.Bytes()), fn)
	}); len(got) != 0 {
		t.Fatalf("empty file decoded %d records", len(got))
	}
	frames, fromIndex, err := ReadIndex(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil || !fromIndex || len(frames) != 0 {
		t.Fatalf("empty index: frames=%d fromIndex=%v err=%v", len(frames), fromIndex, err)
	}
}

// TestWriterAfterCloseFails: the sticky closed error keeps late writers
// from corrupting a finished file.
func TestWriterAfterCloseFails(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	s := w.Sink("nginx", "typo")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(synthRecord(0)); err == nil {
		t.Fatal("write after Close succeeded")
	}
}

// TestIndexMatchesWalk: the trailer index and a CRC-verified frame walk
// must describe the identical frames, and a file whose trailer is torn
// off must fall back to the walk transparently.
func TestIndexMatchesWalk(t *testing.T) {
	recs := synthRecords(200)
	data := writeCampaign(t, recs, 64)

	indexed, fromIndex, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || !fromIndex {
		t.Fatalf("trailer index: fromIndex=%v err=%v", fromIndex, err)
	}
	walked, _, err := walkFrames(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != len(walked) {
		t.Fatalf("index has %d frames, walk found %d", len(indexed), len(walked))
	}
	for i := range indexed {
		if indexed[i] != walked[i] {
			t.Fatalf("frame %d: index %+v, walk %+v", i, indexed[i], walked[i])
		}
	}

	// Tear the trailer off: ReadIndex must recover the same frames.
	torn := data[:len(data)-trailerLen]
	recovered, fromIndex, err := ReadIndex(bytes.NewReader(torn), int64(len(torn)))
	if err != nil {
		t.Fatal(err)
	}
	if fromIndex {
		t.Fatal("torn trailer still read as an index")
	}
	if len(recovered) != len(indexed) {
		t.Fatalf("torn-file walk found %d frames, want %d", len(recovered), len(indexed))
	}
}

// TestTornTailRecovery: truncating anywhere inside the last frame must
// yield the valid full-frame prefix, never an error — the property dist
// resume stands on.
func TestTornTailRecovery(t *testing.T) {
	recs := synthRecords(130)
	data := writeCampaign(t, recs, 64) // frames: 64 + 64 + 2
	full, _, err := walkFrames(bytes.NewReader(data), int64(len(data)))
	if err != nil || len(full) != 3 {
		t.Fatalf("frames=%d err=%v", len(full), err)
	}
	lastOff := full[2].Off
	for _, cut := range []int64{lastOff, lastOff + 1, lastOff + int64(full[2].Len)/2, lastOff + int64(full[2].Len) - 1} {
		torn := data[:cut]
		frames, end, err := walkFrames(bytes.NewReader(torn), cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(frames) != 2 || end != lastOff {
			t.Fatalf("cut at %d: kept %d frames ending at %d, want 2 ending at %d",
				cut, len(frames), end, lastOff)
		}
	}
}

// TestCorruptPayloadDetected: a flipped byte inside a frame payload must
// fail the CRC on both scan paths.
func TestCorruptPayloadDetected(t *testing.T) {
	recs := synthRecords(64)
	data := writeCampaign(t, recs, 64)
	frames, _, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(data)
	corrupt[frames[0].Off+int64(frames[0].Len)-3] ^= 0x40
	if err := Scan(bytes.NewReader(corrupt), func(profile.JSONLEntry) error { return nil }); err == nil {
		t.Fatal("Scan accepted a corrupt payload")
	}
	// The frame walk treats a corrupt tail frame as torn, keeping the
	// valid prefix (here: none).
	if kept, _, err := walkFrames(bytes.NewReader(corrupt), int64(len(corrupt))); err != nil || len(kept) != 0 {
		t.Fatalf("walk over corrupt single frame: kept=%d err=%v", len(kept), err)
	}
}

// TestShardedSeqOrderedRoundTrip: shard sub-sinks interleave frames out
// of order; ScanSeqOrdered must replay the canonical sequence.
func TestShardedSeqOrderedRoundTrip(t *testing.T) {
	recs := synthRecords(157)
	for _, n := range []int{2, 4, 8} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.FrameRecords = 16
		base := w.Sink("nginx", "typo")
		shards := make([]profile.Sink, n)
		for k := range shards {
			shards[k] = base.ShardSink(k, n)
		}
		// Feed each shard its stride k, k+n, ... with deliberately skewed
		// pacing: shard 0 writes everything first, so its frames land
		// ahead of every other shard's.
		for k := 0; k < n; k++ {
			for i := k; i < len(recs); i += n {
				if err := shards[k].Write(recs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got := collect(t, func(fn func(profile.JSONLEntry) error) error {
			return ScanSeqOrdered(bytes.NewReader(buf.Bytes()), int64(buf.Len()), fn)
		})
		checkEntries(t, got, recs)
	}
}

// TestMultiCampaignSeqOrdered: campaigns replay grouped in order of
// first appearance, each with its own sequence space.
func TestMultiCampaignSeqOrdered(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.FrameRecords = 8
	a := w.Sink("nginx", "typo")
	b := w.Sink("postgres", "structural")
	for i := 0; i < 20; i++ {
		if err := a.Write(synthRecord(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(synthRecord(i + 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, func(fn func(profile.JSONLEntry) error) error {
		return ScanSeqOrdered(bytes.NewReader(buf.Bytes()), int64(buf.Len()), fn)
	})
	if len(got) != 40 {
		t.Fatalf("decoded %d records, want 40", len(got))
	}
	for i, e := range got[:20] {
		if e.System != "nginx" || e.Seq != i {
			t.Fatalf("entry %d: %s seq %d, want nginx seq %d", i, e.System, e.Seq, i)
		}
	}
	for i, e := range got[20:] {
		if e.System != "postgres" || e.Seq != i {
			t.Fatalf("entry %d: %s seq %d, want postgres seq %d", 20+i, e.System, e.Seq, i)
		}
	}
}

// TestToJSONLMatchesDirectStream: cprof→JSONL of an ordered campaign is
// byte-identical to the JSONL a JSONLSink would have written directly.
func TestToJSONLMatchesDirectStream(t *testing.T) {
	recs := synthRecords(90)
	var want bytes.Buffer
	js := profile.NewJSONLSink(&want, "nginx", "typo")
	for _, r := range recs {
		if err := js.Write(r); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "p.cprof")
	cf, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cf.W.FrameRecords = 32
	s := cf.W.Sink("nginx", "typo")
	for _, r := range recs {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Close(true); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := ToJSONL(path, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("cprof→JSONL diverges from direct stream:\n got %d bytes\nwant %d bytes", got.Len(), want.Len())
	}

	// And back: JSONL→cprof→Scan yields the same entries.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := FromJSONL(bytes.NewReader(want.Bytes()), w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkEntries(t, collect(t, func(fn func(profile.JSONLEntry) error) error {
		return Scan(bytes.NewReader(buf.Bytes()), fn)
	}), recs)
}

// TestOpenPathResume: ResumePath keeps a cprof file's full frames that
// run contiguous from sequence 0 and truncates the rest — the short
// frame Close(false) cut, a torn frame, a finished campaign's last frame
// and its trailer index, a frame out of sequence — and appended records
// complete the campaign to the bytes of an uninterrupted run.
func TestOpenPathResume(t *testing.T) {
	const F = DefaultFrameRecords
	recs := synthRecords(2*F + 2)
	path := filepath.Join(t.TempDir(), "resume.cprof")
	frames := func() []FrameInfo {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		st, _ := f.Stat()
		fi, _, err := ReadIndex(f, st.Size())
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	write := func(cf *File, from int, recs []profile.Record) {
		t.Helper()
		s := cf.W.Sink("nginx", "typo")
		for i, r := range recs {
			if err := s.writeSeq(from+i, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	cf, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	write(cf, 0, recs)
	if err := cf.Close(true); err != nil {
		t.Fatal(err)
	}
	finished, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(want int) {
		t.Helper()
		cf, front, err := ResumePath(path)
		if err != nil || front != want {
			t.Fatalf("ResumePath: front %d, err %v; want %d", front, err, want)
		}
		write(cf, front, recs[front:])
		if err := cf.Close(true); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, finished) {
			t.Fatalf("resumed from %d, the file differs from an uninterrupted run's", front)
		}
	}

	// A finished file resumes before its short last frame.
	resume(2 * F)

	// An interrupted run closed incomplete keeps every record, the last
	// two in a short frame, which a resume writes again.
	cf, err = OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	write(cf, 0, recs)
	if err := cf.Close(false); err != nil {
		t.Fatal(err)
	}
	fi := frames()
	if len(fi) != 3 || fi[1].LastSeq != 2*F-1 || fi[2].Count != 2 {
		t.Fatalf("Close(false) left frames %+v, want two full frames and one of 2 records", fi)
	}
	got := collect(t, func(fn func(profile.JSONLEntry) error) error {
		return ScanFileSeqOrdered(path, fn)
	})
	checkEntries(t, got, recs)
	resume(2 * F)

	// A crash tore the second frame: the resume keeps the first.
	if err := os.WriteFile(path, finished[:fi[1].Off+fi[1].Len-5], 0o644); err != nil {
		t.Fatal(err)
	}
	resume(F)

	// Frames that do not start at sequence 0 are no prefix at all.
	cf4, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	write(cf4, 5, recs[5:6])
	if err := cf4.Close(true); err != nil {
		t.Fatal(err)
	}
	cf5, front, err := ResumePath(path)
	if err != nil || front != 0 {
		t.Fatalf("ResumePath over a file starting at sequence 5: front %d, err %v; want 0", front, err)
	}
	if err := cf5.Close(false); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, fileMagic) {
		t.Fatalf("out-of-sequence file resumed to %q, want the magic alone", data)
	}
}

// TestOpenPathResumeJSONL: ResumePath keeps a JSONL output's leading
// lines while each is a whole record numbered by its line index — a torn
// tail line, a damaged line mid-file or an overlong one ends the prefix,
// and every line after it goes too — a missing file resumes from
// nothing, and stdout cannot resume at all.
func TestOpenPathResumeJSONL(t *testing.T) {
	recs := synthRecords(10)
	path := filepath.Join(t.TempDir(), "resume.jsonl")
	var full []byte
	for i, r := range recs {
		full = profile.AppendJSONLRecord(full, "nginx", "typo", i, r)
	}
	resume := func(data []byte, want int) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out, front, err := ResumePath(path)
		if err != nil || front != want {
			t.Fatalf("ResumePath: front %d, err %v; want %d", front, err, want)
		}
		for i, r := range recs[front:] {
			if err := out.WriteEntry(profile.JSONLEntry{System: "nginx", Generator: "typo", Seq: front + i, Record: r}); err != nil {
				t.Fatal(err)
			}
		}
		if err := out.Close(true); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, full) {
			t.Fatalf("resumed JSONL diverges:\n%s", got)
		}
	}
	line := func(seq int) []byte {
		return bytes.SplitAfter(full, []byte{'\n'})[seq]
	}
	cut := bytes.Index(full, line(5))
	resume(full[:cut+7], 5)
	resume(bytes.Replace(full, line(3), []byte("{\"seq\":3,\"ou\n"), 1), 3)
	resume(bytes.Replace(full, line(6), line(8), 1), 6)
	resume(full[:len(full)-1], 9)
	// A newline-less tail past the 16 MiB line bound is corrupt, not a
	// record: the prefix ends before it and no more of it is read. The
	// tail here fails once 32 MiB of it are read, so reading it whole
	// would surface that error.
	tail := &endlessLine{left: 32 << 20}
	if front, end, err := intactLines(io.MultiReader(bytes.NewReader(full[:cut]), tail)); err != nil || front != 5 || end != int64(cut) {
		t.Fatalf("intactLines over an overlong tail: front %d, end %d, err %v; want 5, %d", front, end, err, cut)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	out, front, err := ResumePath(path)
	if err != nil || front != 0 {
		t.Fatalf("ResumePath over a missing file: front %d, err %v; want 0", front, err)
	}
	if err := out.Close(true); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 0 {
		t.Fatalf("ResumePath did not create an empty file: %v", err)
	}
	if _, _, err := ResumePath("-"); err == nil {
		t.Fatal("ResumePath resumed stdout")
	}
}

// endlessLine reads as one newline-free line that fails after left
// bytes.
type endlessLine struct{ left int }

func (r *endlessLine) Read(p []byte) (int, error) {
	if r.left <= 0 {
		return 0, errors.New("read past the line bound")
	}
	n := min(len(p), r.left)
	for i := range p[:n] {
		p[i] = 'x'
	}
	r.left -= n
	return n, nil
}

// TestFoldFileParallelMatchesSequential: the claim-counter fold over
// workers must aggregate exactly what a sequential scan does.
func TestFoldFileParallelMatchesSequential(t *testing.T) {
	recs := synthRecords(500)
	dir := t.TempDir()
	path := filepath.Join(dir, "fold.cprof")
	cf, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cf.W.FrameRecords = 32
	s := cf.W.Sink("nginx", "typo")
	for _, r := range recs {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Close(true); err != nil {
		t.Fatal(err)
	}

	want := profile.NewStreamStats(nil)
	if err := ScanPath(path, want.Add); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		folds := make([]*profile.StreamStats, workers)
		for i := range folds {
			folds[i] = profile.NewStreamStats(nil)
		}
		if err := FoldFile(path, workers, func(w int, e profile.JSONLEntry) error {
			return folds[w].Add(e)
		}); err != nil {
			t.Fatal(err)
		}
		got := folds[0]
		for _, o := range folds[1:] {
			got.Merge(o)
		}
		if got.TotalRecords() != want.TotalRecords() {
			t.Fatalf("workers=%d: folded %d records, want %d", workers, got.TotalRecords(), want.TotalRecords())
		}
		gc, wc := got.Campaigns(), want.Campaigns()
		if len(gc) != 1 || len(wc) != 1 || gc[0].Summary != wc[0].Summary || gc[0].Duration != wc[0].Duration {
			t.Fatalf("workers=%d: fold diverged: %+v vs %+v", workers, gc[0], wc[0])
		}
	}
}

// TestFileWriteTakesMergerLines: File.Write takes one rendered JSONL
// line per call, the contract SeqMerger provides, in either format: a
// JSONL output holds the lines verbatim, a cprof output the same entries.
func TestFileWriteTakesMergerLines(t *testing.T) {
	recs := synthRecords(30)
	dir := t.TempDir()
	var want []byte
	for _, name := range []string{"merged.jsonl", "merged.cprof"} {
		path := filepath.Join(dir, name)
		out, err := OpenPath(path)
		if err != nil {
			t.Fatal(err)
		}
		if out.W != nil {
			out.W.FrameRecords = 8
		}
		var line []byte
		for i, r := range recs {
			line = profile.AppendJSONLRecord(line[:0], "nginx", "typo", i, r)
			want = append(want, line...)
			if _, err := out.Write(line); err != nil {
				t.Fatal(err)
			}
		}
		if err := out.Close(true); err != nil {
			t.Fatal(err)
		}
		checkEntries(t, collect(t, func(fn func(profile.JSONLEntry) error) error {
			return ScanPath(path, fn)
		}), recs)
		if out.W == nil {
			if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
				t.Fatalf("%s: JSONL output is not the lines written", name)
			}
		}
	}
}

// TestScanAutoSniffsFormat: content sniffing, not extensions, decides
// the decode path.
func TestScanAutoSniffsFormat(t *testing.T) {
	recs := synthRecords(10)
	cdata := writeCampaign(t, recs, 64)
	var jdata bytes.Buffer
	js := profile.NewJSONLSink(&jdata, "nginx", "typo")
	for _, r := range recs {
		if err := js.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range map[string][]byte{"cprof": cdata, "jsonl": jdata.Bytes()} {
		got := collect(t, func(fn func(profile.JSONLEntry) error) error {
			return ScanAuto(bytes.NewReader(data), fn)
		})
		if len(got) != len(recs) {
			t.Fatalf("%s: ScanAuto decoded %d records, want %d", name, len(got), len(recs))
		}
	}
}

// FuzzScan: arbitrary bytes must never panic the frame decoder; they
// either decode or error.
func FuzzScan(f *testing.F) {
	f.Add([]byte("cprof\x01"))
	f.Add([]byte(`{"system":"a"}`))
	recs := synthRecords(20)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	s := w.Sink("nginx", "typo")
	for _, r := range recs {
		_ = s.Write(r)
	}
	_ = w.Close()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = Scan(bytes.NewReader(data), func(profile.JSONLEntry) error { return nil })
		_, _, _ = walkFrames(bytes.NewReader(data), int64(len(data)))
		_, _, _ = ReadIndex(bytes.NewReader(data), int64(len(data)))
	})
}

// BenchmarkCprofEncode reports encode throughput and the on-disk
// bytes-per-record density CI guards against regressing.
func BenchmarkCprofEncode(b *testing.B) {
	recs := synthRecords(DefaultFrameRecords)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := NewWriter(&buf)
		s := w.Sink("nginx", "typo")
		for _, r := range recs {
			if err := s.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(buf.Len())/float64(len(recs)), "bytes/record")
	b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkCprofScan measures decode+fold throughput over an in-memory
// multi-frame file.
func BenchmarkCprofScan(b *testing.B) {
	const n = 4 * DefaultFrameRecords
	recs := synthRecords(n)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	s := w.Sink("nginx", "typo")
	for _, r := range recs {
		if err := s.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := profile.NewStreamStats(nil)
		if err := Scan(bytes.NewReader(data), stats.Add); err != nil {
			b.Fatal(err)
		}
		if stats.TotalRecords() != n {
			b.Fatal("short scan")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkJSONLScanBaseline is the same fold over the same records in
// JSONL — the denominator of the cprof scan speedup.
func BenchmarkJSONLScanBaseline(b *testing.B) {
	const n = 4 * DefaultFrameRecords
	recs := synthRecords(n)
	var buf bytes.Buffer
	js := profile.NewJSONLSink(&buf, "nginx", "typo")
	for _, r := range recs {
		if err := js.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := profile.NewStreamStats(nil)
		if err := profile.ScanJSONL(bytes.NewReader(data), stats.Add); err != nil {
			b.Fatal(err)
		}
		if stats.TotalRecords() != n {
			b.Fatal("short scan")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "records/s")
}
