package dist_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"conferr"
	"conferr/internal/dist"
	"conferr/internal/profile"
)

// marshalFrame is the reflection encoding every frame had before rec
// frames got a fixed encoder: the wire format ProtocolVersion 1 pins.
func marshalFrame(t testing.TB, f dist.Frame) []byte {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// shardLines runs one shard of a real nginx/typo campaign and returns
// its rendered record lines by sequence.
func shardLines(t *testing.T, spec dist.CampaignSpec) map[int][]byte {
	t.Helper()
	req := dist.ShardRequest{Type: dist.TypeRun, Proto: dist.ProtocolVersion, Campaign: spec, Shard: 0, Shards: 1}
	lines := make(map[int][]byte)
	emit := func(seq int, line []byte) error {
		lines[seq] = append([]byte(nil), line...)
		return nil
	}
	if _, err := conferr.NewDistRunner().RunShard(context.Background(), req, emit); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestRecFrameMatchesMarshal: the fixed rec frame encoder writes exactly
// the bytes json.Marshal wrote for every record of a real shard, and
// the fast decoder reads them back as json.Unmarshal does.
func TestRecFrameMatchesMarshal(t *testing.T) {
	lines := shardLines(t, realSpec(11, 2000, 25906))
	if len(lines) != 2000 {
		t.Fatalf("shard rendered %d lines, want 2000", len(lines))
	}
	check := func(seq int, line []byte) {
		t.Helper()
		want := marshalFrame(t, dist.Frame{Type: dist.TypeRec, Seq: seq, Rec: line})
		got := dist.AppendRecFrame(nil, seq, line)
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d: rec frame\n got %s\nwant %s", seq, got, want)
		}
		var ref, fast dist.Frame
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		// Seq 0 omits the key, and 19-digit seqs could overflow: both
		// take json.Unmarshal's path.
		if fits := seq > 0 && seq < 1e18; dist.DecodeRecFrame(got[:len(got)-1], &fast) != fits {
			t.Fatalf("seq %d: fast decoder accepts = %v, want %v", seq, !fits, fits)
		}
		if fast.Type != "" && !reflect.DeepEqual(fast, ref) {
			t.Fatalf("seq %d: fast decode %+v, json.Unmarshal %+v", seq, fast, ref)
		}
	}
	for seq, line := range lines {
		check(seq, line)
	}
	for _, seq := range []int{0, 1, 9, 10, 123456789, math.MaxInt32, 1 << 40, 999999999999999999, math.MaxInt64} {
		check(seq, lines[0])
	}
}

// legacyServe is a worker speaking the wire as it was before rec frames
// were batched: every frame reflection-encoded and written on its own.
func legacyServe(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	runner := conferr.NewDistRunner()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				var req dist.ShardRequest
				if !sc.Scan() || json.Unmarshal(sc.Bytes(), &req) != nil {
					return
				}
				write := func(f dist.Frame) error {
					data, err := json.Marshal(f)
					if err != nil {
						return err
					}
					_, err = conn.Write(append(data, '\n'))
					return err
				}
				res, err := runner.RunShard(context.Background(), req, func(seq int, line []byte) error {
					return write(dist.Frame{Type: dist.TypeRec, Seq: seq, Rec: line})
				})
				if err != nil {
					_ = write(dist.Frame{Type: dist.TypeError, Err: err.Error()})
					return
				}
				sum := res.Summary
				_ = write(dist.Frame{Type: dist.TypeDone, Records: res.Records, Summary: &sum})
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDistLegacyWireInterop: a coordinator fed by workers that still
// marshal and write every frame one by one merges byte-identical to the
// single-process reference — the batched fixed encoder changed no byte
// of ProtocolVersion 1.
func TestDistLegacyWireInterop(t *testing.T) {
	const (
		seed  = int64(9)
		limit = 600
		port  = 25907
	)
	ref := referenceStream(t, seed, limit, port)
	var out bytes.Buffer
	coord := &dist.Coordinator{
		Workers:      []string{legacyServe(t), legacyServe(t)},
		Shards:       4,
		Spec:         realSpec(seed, limit, port),
		Out:          &out,
		StallTimeout: 10 * time.Second,
		Retry:        fastRetry,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != limit || res.Retries != 0 {
		t.Fatalf("records = %d, retries = %d, want %d and 0", res.Records, res.Retries, limit)
	}
	if !bytes.Equal(out.Bytes(), ref) {
		t.Fatalf("legacy-wire merge diverges from single-process reference:\n got %d bytes\nwant %d bytes", out.Len(), len(ref))
	}
}

// TestRecFrameAllocs: one rec frame costs no allocation, encoded into a
// warm write buffer and decoded by the fast path into a reused Frame.
func TestRecFrameAllocs(t *testing.T) {
	line := []byte(`{"seq":4242,"scenario":"typo/nginx/listen#3","outcome":"detected-at-startup","detail":"bad port <80>"}`)
	bw := bufio.NewWriterSize(io.Discard, 64*1024)
	frame := dist.AppendRecFrame(nil, 4242, line)
	frame = frame[:len(frame)-1]
	var f dist.Frame
	round := func() {
		if err := dist.WriteRecFrame(bw, 4242, line); err != nil {
			t.Fatal(err)
		}
		if !dist.DecodeRecFrame(frame, &f) {
			t.Fatal("fast decoder declined a rec frame")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(2000, round); allocs != 0 {
		t.Fatalf("one rec frame costs %.2f allocs, want 0", allocs)
	}
	if f.Seq != 4242 || !bytes.Equal(f.Rec, line) {
		t.Fatalf("decoded %+v", f)
	}
}

// serve hosts srv on a loopback port until the test ends.
func serve(t *testing.T, srv *dist.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(context.Background(), ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// TestDistBatchedRecordsReachPeerWithinHeartbeats: records buffered by a
// worker reach the coordinator by the next heartbeat even when the
// runner goes quiet right after emitting them.
func TestDistBatchedRecordsReachPeerWithinHeartbeats(t *testing.T) {
	quiet := dist.ShardRunnerFunc(func(ctx context.Context, _ dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		for seq := 0; seq < 3; seq++ {
			if err := emit(seq, stubLine(seq)); err != nil {
				return dist.ShardResult{}, err
			}
		}
		<-ctx.Done()
		return dist.ShardResult{}, ctx.Err()
	})
	fc := dialFrames(t, serve(t, &dist.Server{Runner: quiet, Heartbeat: 100 * time.Millisecond}))
	// Far inside any StallTimeout, far beyond two heartbeats.
	if err := fc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fc.send(t, validStubRequest(10))
	recs, beats := 0, 0
	for recs < 3 {
		f, err := fc.next(t)
		if err != nil {
			t.Fatalf("after %d records and %d heartbeats: %v", recs, beats, err)
		}
		switch f.Type {
		case dist.TypeRec:
			if f.Seq != recs || string(f.Rec) != string(stubLine(recs)) {
				t.Fatalf("record frame %+v, want seq %d", f, recs)
			}
			recs++
		case dist.TypeProgress:
			if beats++; beats == 2 {
				t.Fatalf("only %d of 3 records delivered after two heartbeats", recs)
			}
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
}

// TestDistEmitFailsWhenPeerCloses: once the coordinator hangs up, the
// runner's emit fails within one heartbeat, although record frames sit
// in the worker's buffer and no write has failed yet.
func TestDistEmitFailsWhenPeerCloses(t *testing.T) {
	const hb = 200 * time.Millisecond
	failed := make(chan time.Time, 1)
	chatty := dist.ShardRunnerFunc(func(ctx context.Context, _ dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		for seq := 0; ; seq++ {
			if err := emit(seq, stubLine(seq)); err != nil {
				failed <- time.Now()
				return dist.ShardResult{}, err
			}
			if seq >= 3 {
				time.Sleep(2 * time.Millisecond)
			}
		}
	})
	fc := dialFrames(t, serve(t, &dist.Server{Runner: chatty, Heartbeat: hb}))
	fc.send(t, validStubRequest(10))
	for recs := 0; recs < 3; {
		f, err := fc.next(t)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == dist.TypeRec {
			recs++
		}
	}
	closed := time.Now()
	fc.conn.Close()
	select {
	case at := <-failed:
		if d := at.Sub(closed); d > hb {
			t.Fatalf("emit failed %v after the peer closed, want within one heartbeat (%v)", d, hb)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("emit never failed after the peer closed")
	}
}

// FuzzDecodeFrame: the fast rec frame decoder either declines a line or
// decodes exactly the Frame json.Unmarshal does; it never accepts a line
// json.Unmarshal rejects.
func FuzzDecodeFrame(f *testing.F) {
	rec := []byte(`{"seq":7,"system":"nginx","outcome":"ok","detail":"a <b> \"q\""}`)
	sum := profile.Summary{Injected: 4, AtStartup: 1}
	seeds := [][]byte{
		dist.AppendRecFrame(nil, 7, rec),
		dist.AppendRecFrame(nil, 0, rec),
		dist.AppendRecFrame(nil, math.MaxInt32, rec),
		dist.AppendRecFrame(nil, 999999999999999999, []byte(`{}`)),
		marshalFrame(f, dist.Frame{Type: dist.TypeProgress, Seq: 12}),
		marshalFrame(f, dist.Frame{Type: dist.TypeDone, Records: 40, Summary: &sum}),
		marshalFrame(f, dist.Frame{Type: dist.TypeError, Err: "dist: worker draining"}),
		[]byte(`{"type":"rec","seq":-1,"rec":{}}`),
		[]byte(`{"type":"rec","seq":0,"rec":{}}`),
		[]byte(`{"type":"rec","seq":007,"rec":{}}`),
		[]byte(`{"type":"rec","seq":1234567890123456789,"rec":{}}`),
		[]byte(`{"type":"rec","seq":99999999999999999999,"rec":{}}`),
		[]byte(`{"type":"rec","seq":1e3,"rec":{}}`),
		[]byte(`{"type":"rec","seq":5,"rec": {} }`),
		[]byte(`{"type":"rec","seq":5,"rec":null}`),
		[]byte(`{"type":"rec","seq":5,"rec":"x"}`),
		[]byte(`{"type":"rec","seq":5,"rec":{},"rec":[1]}`),
		[]byte(`{"type":"rec","seq":5,"rec":{"a":1},"type":"done"}`),
		[]byte(`{"type":"rec","seq":5,"rec":}`),
		[]byte(`{"type":"rec","seq":5,"rec":{"a":"\x01"}}`),
	}
	for _, s := range seeds {
		s = bytes.TrimSuffix(s, []byte("\n"))
		f.Add(s)
		for _, cut := range []int{1, len(s) / 2, len(s) - 1} {
			f.Add(s[:cut]) // truncated frames
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var fast dist.Frame
		ok := dist.DecodeRecFrame(line, &fast)
		var ref dist.Frame
		refErr := json.Unmarshal(line, &ref)
		if !ok {
			if !reflect.DeepEqual(fast, dist.Frame{}) {
				t.Fatalf("declined %q but wrote %+v", line, fast)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("fast decoder accepted %q, which json.Unmarshal rejects: %v", line, refErr)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("line %q: fast decode %+v, json.Unmarshal %+v", line, fast, ref)
		}
	})
}

// FuzzShardRequestValidate: Validate never panics on any request a
// worker can decode, and accepts only well-formed ones.
func FuzzShardRequestValidate(f *testing.F) {
	f.Add([]byte(validStubRequest(10)))
	f.Add([]byte(fmt.Sprintf(`{"type":"run","proto":%d,"campaign":{"system":"nginx","plugin":"typo","seed":3,"experiment_timeout":1000000},"shard":2,"shards":4,"start_seq":100}`, dist.ProtocolVersion)))
	f.Add([]byte(`{"type":"run","proto":99,"campaign":{"system":"s","plugin":"p"},"shard":0,"shards":1}`))
	f.Add([]byte(`{"type":"run","campaign":{"system":"s","plugin":"p"},"shard":0,"shards":1}`))
	f.Add([]byte(`{"type":"run","proto":1,"campaign":{"system":"s","plugin":"p"},"shard":3,"shards":3}`))
	f.Add([]byte(`{"type":"run","proto":1,"campaign":{"system":"s","plugin":"p"},"shard":-1,"shards":0}`))
	f.Add([]byte(`{"type":"run","proto":1,"campaign":{"plugin":"p"},"shard":0,"shards":1,"start_seq":-4}`))
	f.Add([]byte(fmt.Sprintf(`{"type":"run","proto":%d,"campaign":{"system":"s","plugin":"p","phase_timeout":-1},"shard":0,"shards":1}`, dist.ProtocolVersion)))
	f.Add([]byte(`{"type":"rec","proto":1,"campaign":{"phase_timeout":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req dist.ShardRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		err := req.Validate()
		wellFormed := req.Type == dist.TypeRun && req.Proto == dist.ProtocolVersion &&
			req.Shards > 0 && req.Shard >= 0 && req.Shard < req.Shards && req.StartSeq >= 0 &&
			req.Campaign.ExperimentTimeout >= 0 && req.Campaign.PhaseTimeout >= 0 &&
			req.Campaign.System != "" && req.Campaign.Plugin != ""
		if wellFormed != (err == nil) {
			t.Fatalf("Validate(%+v) = %v, well-formed = %v", req, err, wellFormed)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "dist: ") {
			t.Fatalf("Validate error %q lacks the package prefix", err)
		}
	})
}
