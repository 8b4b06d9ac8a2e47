package dist_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"conferr/internal/dist"
	"conferr/internal/profile"
)

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
		case recordLine:
			if string(f.Rec) != string(stubLine(recs)) {
				t.Fatalf("record line %s, want seq %d", f.Rec, recs)
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
// runner's emit fails within one heartbeat, although record lines sit
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
		if f.Type == recordLine {
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

// TestDistRefusesAnotherCampaignsRecords: a worker whose runner renders
// bind/typo lines for an nginx/typo spec fails every attempt of its
// shard with an error naming the campaign the lines should belong to,
// and none of its lines reaches the output.
func TestDistRefusesAnotherCampaignsRecords(t *testing.T) {
	const total = 6
	bindLine := func(seq int) []byte {
		line := profile.AppendJSONLRecord(nil, "bind", "typo", seq, profile.Record{
			ScenarioID: fmt.Sprint("typo#", seq), Outcome: profile.DetectedByTest,
		})
		return line[:len(line)-1]
	}
	wrong := dist.ShardRunnerFunc(func(_ context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		for seq := req.Shard; seq < total; seq += req.Shards {
			if err := emit(seq, bindLine(seq)); err != nil {
				return dist.ShardResult{}, err
			}
		}
		return dist.ShardResult{Records: total}, nil
	})
	_, addr := startServer(t, wrong)
	var out bytes.Buffer
	coord := &dist.Coordinator{
		Workers:      []string{addr},
		Shards:       1,
		Spec:         dist.CampaignSpec{System: "nginx", Plugin: "typo", Limit: total},
		Out:          &out,
		StallTimeout: 5 * time.Second,
		Retry:        fastRetry,
	}
	_, err := coord.Run(context.Background())
	if err == nil {
		t.Fatalf("merged %d bytes of bind/typo records into an nginx/typo profile", out.Len())
	}
	want := fmt.Sprintf("dist: shard 0 failed after %d attempts: dist: worker sent a line that is no record of nginx/typo: %q",
		fastRetry.MaxAttempts, bindLine(0)[:64])
	if err.Error() != want {
		t.Fatalf("err = %v\nwant %s", err, want)
	}
	if out.Len() != 0 {
		t.Fatalf("output holds %q", out.Bytes())
	}
}

// TestDistLineCutByDeathIsAClosedConnection: a worker that dies in the
// middle of a record line has closed the connection; the cut line is not
// read as a line of some other campaign.
func TestDistLineCutByDeathIsAClosedConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Read the request first: closing with it unread could reset
			// the connection instead.
			if _, err := bufio.NewReader(conn).ReadBytes('\n'); err == nil {
				_, _ = conn.Write(append(stubLine(0), '\n'))
				_, _ = conn.Write(stubLine(1)[:40])
			}
			conn.Close()
		}
	}()
	coord := &dist.Coordinator{
		Workers:      []string{ln.Addr().String()},
		Shards:       1,
		Spec:         dist.CampaignSpec{System: "stub", Plugin: "stub", Limit: 2},
		Out:          &bytes.Buffer{},
		StallTimeout: 5 * time.Second,
		Retry:        fastRetry,
	}
	_, err = coord.Run(context.Background())
	if want := "dist: worker closed connection mid-shard"; err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("err = %v, want it to end in %q", err, want)
	}
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
