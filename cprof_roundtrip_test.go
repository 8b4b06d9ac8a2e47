package conferr

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"conferr/internal/profile"
)

// mkCprofTestRunner builds a fresh nginx/typo runner on a fixed port so
// repeated runs inject byte-identical faultloads.
func mkCprofTestRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunnerFor("nginx", "typo", GeneratorOptions{Seed: DefaultSeed, PerModel: 6})
	if err != nil {
		t.Fatal(err)
	}
	r.Port = 23991
	return r
}

// TestCprofRoundTripByteIdentical is the format's equivalence contract:
// a campaign streamed into a cprof file — through the sharded,
// frame-interleaved path at workers 1, 4 and 8 — converts back to JSONL
// byte-identical to the stream a JSONLSink writes directly. Durations
// are stripped on both sides (two separate runs measure different
// wall-clock), which also proves StripDurations composes with the cprof
// sink without breaking its shardability.
func TestCprofRoundTripByteIdentical(t *testing.T) {
	var ref bytes.Buffer
	if _, err := mkCprofTestRunner(t).RunStream(context.Background(),
		StripDurations(NewJSONLSink(&ref, "nginx", "typo"))); err != nil {
		t.Fatal(err)
	}
	if ref.Len() == 0 {
		t.Fatal("reference run produced no records")
	}

	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(t.TempDir(), "stream.cprof")
		cf, err := CreateCprof(path)
		if err != nil {
			t.Fatal(err)
		}
		// Small frames force the sharded runs through multi-frame
		// interleavings the seq-ordered scan has to merge.
		cf.W.FrameRecords = 32
		sink := StripDurations(cf.W.Sink("nginx", "typo"))
		n, err := mkCprofTestRunner(t).RunStream(context.Background(), sink, WithParallelism(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := cf.Close(true); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := CprofToJSONL(path, &got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Errorf("workers=%d: cprof→JSONL diverges from direct JSONL (%d records, got %d bytes, want %d)",
				workers, n, got.Len(), ref.Len())
		}
	}
}

// TestCprofSameRunMatchesJSONLWithDurations checks lossless duration
// carriage: one run fans out to a JSONL sink and a cprof sink at once
// (the JSONL member makes the MultiSink unshardable, so both see the
// ordered stream), and the cprof file must replay byte-identical —
// durations included.
func TestCprofSameRunMatchesJSONLWithDurations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "both.cprof")
	cf, err := CreateCprof(path)
	if err != nil {
		t.Fatal(err)
	}
	cf.W.FrameRecords = 32
	var ref bytes.Buffer
	sink := profile.MultiSink{
		NewJSONLSink(&ref, "nginx", "typo"),
		cf.W.Sink("nginx", "typo"),
	}
	if _, err := mkCprofTestRunner(t).RunStream(context.Background(), sink, WithParallelism(4)); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(true); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := CprofToJSONL(path, &got); err != nil {
		t.Fatal(err)
	}
	if ref.Len() == 0 || !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("cprof replay diverges from same-run JSONL: got %d bytes, want %d", got.Len(), ref.Len())
	}

	// The compact file should actually be compact, durations and all.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(ref.Len()) {
		t.Errorf("cprof (%d bytes) not smaller than JSONL (%d bytes)", st.Size(), ref.Len())
	}

	// Sanity: both formats fold to the same analytics.
	jstats, cstats := NewStreamStats(nil), NewStreamStats(nil)
	if err := profile.ScanJSONL(bytes.NewReader(ref.Bytes()), jstats.Add); err != nil {
		t.Fatal(err)
	}
	if err := ScanProfilePath(path, cstats.Add); err != nil {
		t.Fatal(err)
	}
	jc, cc := jstats.Campaigns(), cstats.Campaigns()
	if len(jc) != 1 || len(cc) != 1 || jc[0].Summary != cc[0].Summary || jc[0].Duration != cc[0].Duration {
		t.Errorf("folds diverge across formats: %+v vs %+v", jc[0], cc[0])
	}
}

// TestCprofShardedWritePathEngaged pins the capability handshake: the
// cprof sink must advertise shardability (alone and under
// StripDurations) so the engine keeps its no-reassembly bypass, while a
// MultiSink containing a JSONL member must not.
func TestCprofShardedWritePathEngaged(t *testing.T) {
	cf, err := CreateCprof(filepath.Join(t.TempDir(), "cap.cprof"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close(false)
	base := cf.W.Sink("nginx", "typo")
	if _, ok := Sink(base).(profile.ShardableSink); !ok {
		t.Error("cprof sink is not shardable")
	}
	if !profile.CanShardSink(StripDurations(base)) {
		t.Error("StripDurations(cprof) lost shardability")
	}
	multi := profile.MultiSink{NewJSONLSink(&bytes.Buffer{}, "a", "b"), base}
	if multi.SinkShardable() {
		t.Error("MultiSink with a JSONL member claims shardability")
	}
}
