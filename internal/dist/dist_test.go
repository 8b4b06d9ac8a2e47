package dist_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conferr"
	"conferr/internal/chaos"
	"conferr/internal/dist"
	"conferr/internal/profile"
	"conferr/internal/profile/cprof"
)

// fastRetry keeps test retries well under a second.
var fastRetry = dist.RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond}

// startServer hosts a worker daemon on a loopback port.
func startServer(t *testing.T, runner dist.ShardRunner) (*dist.Server, string) {
	t.Helper()
	srv := &dist.Server{Runner: runner, Heartbeat: 20 * time.Millisecond}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(context.Background(), ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

// stubLine renders the stub faultload's record seq as a profile line
// (newline trimmed), so a resumed JSONL output can parse it back.
func stubLine(seq int) []byte {
	line := profile.AppendJSONLRecord(nil, "stub", "stub", seq, profile.Record{
		ScenarioID: fmt.Sprint("stub#", seq), Outcome: profile.DetectedByTest,
	})
	return line[:len(line)-1]
}

// stubShard emits the shard's slice of a synthetic faultload whose size
// rides in Campaign.Limit, honoring the StartSeq skip contract.
func stubShard(req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
	total := req.Campaign.Limit
	owned, emitted := 0, 0
	for seq := req.Shard; seq < total; seq += req.Shards {
		owned++
		if seq < req.StartSeq {
			continue
		}
		if err := emit(seq, stubLine(seq)); err != nil {
			return dist.ShardResult{}, err
		}
		emitted++
	}
	return dist.ShardResult{Records: owned, Summary: profile.Summary{Injected: emitted}}, nil
}

func healthyRunner() dist.ShardRunner {
	return dist.ShardRunnerFunc(func(_ context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		return stubShard(req, emit)
	})
}

// holdFirstShard makes runner's first shard wait until closed is closed —
// the victim server has died — so a death test's healthy endpoint cannot
// drain every shard before the coordinator dials the victim, which would
// then run no shard and its death register as no retry. The wait is
// bounded; running out of it fails the test.
func holdFirstShard(t *testing.T, runner dist.ShardRunner, closed <-chan struct{}) dist.ShardRunner {
	var held atomic.Bool
	return dist.ShardRunnerFunc(func(ctx context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		if held.CompareAndSwap(false, true) {
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Error("the victim worker never died: it ran no shard")
			}
		}
		return runner.RunShard(ctx, req, emit)
	})
}

// wantStream renders the expected merged output for a stub faultload.
func wantStream(total int) []byte {
	var b bytes.Buffer
	for i := 0; i < total; i++ {
		b.Write(stubLine(i))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// referenceStream runs the campaign single-process through the matrix
// path — the stream distributed runs must be byte-identical to.
func referenceStream(t *testing.T, seed int64, limit, port int) []byte {
	return referenceStreamRounds(t, seed, 1, limit, port)
}

func referenceStreamRounds(t *testing.T, seed int64, rounds, limit, port int) []byte {
	t.Helper()
	entries, skipped, err := conferr.MatrixEntries([]string{"nginx"}, []string{"typo"}, conferr.GeneratorOptions{Seed: seed})
	if err != nil || len(skipped) > 0 || len(entries) != 1 {
		t.Fatalf("matrix entries: %v (skipped %v)", err, skipped)
	}
	entries[0].Port = port
	var buf bytes.Buffer
	mo := conferr.MatrixOptions{
		Workers:  1,
		Rounds:   rounds,
		Limit:    limit,
		InMemory: true,
		SinkFor: func(e conferr.MatrixEntry) conferr.Sink {
			return conferr.StripDurations(conferr.NewJSONLSink(&buf, e.System, e.Plugin))
		},
	}
	if _, err := conferr.RunMatrix(context.Background(), entries, mo); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("reference run produced no records")
	}
	return buf.Bytes()
}

func realSpec(seed int64, limit, port int) dist.CampaignSpec {
	return dist.CampaignSpec{
		System: "nginx", Plugin: "typo", Seed: seed,
		Limit: limit, Port: port, Memnet: true, NoDuration: true,
	}
}

// TestDistByteIdentityRealCampaign: a real campaign distributed over two
// in-process workers merges byte-identical to the single-process matrix
// cell, over memnet and over kernel TCP, where every worker SUT of both
// servers serves the primary port on a loopback host of its own.
func TestDistByteIdentityRealCampaign(t *testing.T) {
	const (
		seed  = int64(7)
		limit = 30
		port  = 25900
	)
	ref := referenceStream(t, seed, limit, port)
	runner := conferr.NewDistRunner()
	_, a1 := startServer(t, runner)
	_, a2 := startServer(t, runner)

	for _, memnet := range []bool{true, false} {
		var out bytes.Buffer
		spec := realSpec(seed, limit, port)
		spec.Memnet = memnet
		coord := &dist.Coordinator{
			Workers:      []string{a1, a2},
			Shards:       3,
			Spec:         spec,
			Out:          &out,
			StallTimeout: 10 * time.Second,
			Retry:        fastRetry,
		}
		res, err := coord.Run(context.Background())
		if err != nil {
			t.Fatalf("memnet=%v: %v", memnet, err)
		}
		if res.Records != limit {
			t.Fatalf("memnet=%v: records = %d, want %d", memnet, res.Records, limit)
		}
		if !bytes.Equal(out.Bytes(), ref) {
			t.Fatalf("memnet=%v: distributed stream diverges from single-process reference:\n got %d bytes\nwant %d bytes", memnet, out.Len(), len(ref))
		}
	}
}

// TestDistByteIdentityAfterWorkerKill: killing a worker mid-shard gets
// the shard reassigned and the merged profile stays byte-identical.
func TestDistByteIdentityAfterWorkerKill(t *testing.T) {
	const (
		seed  = int64(11)
		limit = 30
		port  = 25901
	)
	ref := referenceStream(t, seed, limit, port)
	real := conferr.NewDistRunner()

	// Server A dies after its sixth record; the atomic pointer (set once
	// the server exists) keeps the kill hook race-clean. Server B holds
	// its first shard until A is dead, so A is sure to run one.
	var victim atomic.Pointer[dist.Server]
	var once sync.Once
	closed := make(chan struct{})
	killer := dist.ShardRunnerFunc(func(ctx context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		n := 0
		return real.RunShard(ctx, req, func(seq int, line []byte) error {
			n++
			if n == 6 {
				once.Do(func() { _ = victim.Load().Close(); close(closed) })
			}
			return emit(seq, line)
		})
	})
	srvA, a1 := startServer(t, killer)
	victim.Store(srvA)
	_, a2 := startServer(t, holdFirstShard(t, real, closed))

	var out bytes.Buffer
	coord := &dist.Coordinator{
		Workers:      []string{a1, a2},
		Shards:       3,
		Spec:         realSpec(seed, limit, port),
		Out:          &out,
		StallTimeout: 10 * time.Second,
		Retry:        fastRetry,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != limit {
		t.Fatalf("records = %d, want %d", res.Records, limit)
	}
	if res.Retries == 0 {
		t.Fatal("worker death did not register as a shard retry")
	}
	if !bytes.Equal(out.Bytes(), ref) {
		t.Fatalf("post-kill stream diverges from single-process reference:\n got %d bytes\nwant %d bytes", out.Len(), len(ref))
	}
}

// TestDistDuplicateDeliveryDeduped: a shard that fails after delivering
// all its records gets retried, and the retry's re-delivered records are
// dropped by sequence without disturbing the stream or the summary.
func TestDistDuplicateDeliveryDeduped(t *testing.T) {
	const total = 20
	var failedOnce atomic.Bool
	runner := dist.ShardRunnerFunc(func(_ context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		res, err := stubShard(req, emit)
		if err != nil {
			return res, err
		}
		if req.Shard == 1 && failedOnce.CompareAndSwap(false, true) {
			return dist.ShardResult{}, errors.New("synthetic post-delivery failure")
		}
		return res, nil
	})
	_, addr := startServer(t, runner)

	var out bytes.Buffer
	coord := &dist.Coordinator{
		Workers:      []string{addr},
		Shards:       2,
		Spec:         dist.CampaignSpec{System: "stub", Plugin: "stub", Limit: total},
		Out:          &out,
		StallTimeout: 5 * time.Second,
		Retry:        fastRetry,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), wantStream(total)) {
		t.Fatalf("merged stream diverges:\n%s", out.String())
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want 1", res.Retries)
	}
	if res.Duplicates != total/2 {
		t.Fatalf("duplicates = %d, want %d (shard 1 re-delivered whole)", res.Duplicates, total/2)
	}
	if res.Summary.Injected != total {
		t.Fatalf("summary injected = %d, want %d (failed attempt must not tally)", res.Summary.Injected, total)
	}
}

// TestDistWorkerDeathReassigned: a worker that dies mid-shard (stub
// flavor — the real-campaign flavor is TestDistByteIdentityAfterWorkerKill)
// is retired after dial failures and its shard completes elsewhere.
func TestDistWorkerDeathReassigned(t *testing.T) {
	const total = 40
	var victim atomic.Pointer[dist.Server]
	var once sync.Once
	closed := make(chan struct{})
	dying := dist.ShardRunnerFunc(func(_ context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		total := req.Campaign.Limit
		owned, sent := 0, 0
		for seq := req.Shard; seq < total; seq += req.Shards {
			owned++
			if seq < req.StartSeq {
				continue
			}
			if sent == 3 {
				once.Do(func() { _ = victim.Load().Close(); close(closed) })
			}
			if err := emit(seq, stubLine(seq)); err != nil {
				return dist.ShardResult{}, err
			}
			sent++
		}
		return dist.ShardResult{Records: owned, Summary: profile.Summary{Injected: sent}}, nil
	})
	srvA, a1 := startServer(t, dying)
	victim.Store(srvA)
	_, a2 := startServer(t, holdFirstShard(t, healthyRunner(), closed))

	var out bytes.Buffer
	coord := &dist.Coordinator{
		Workers:      []string{a1, a2},
		Shards:       4,
		Spec:         dist.CampaignSpec{System: "stub", Plugin: "stub", Limit: total},
		Out:          &out,
		StallTimeout: 5 * time.Second,
		Retry:        fastRetry,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), wantStream(total)) {
		t.Fatalf("merged stream diverges after worker death:\n%s", out.String())
	}
	if res.Records != total {
		t.Fatalf("records = %d, want %d", res.Records, total)
	}
	if res.Retries == 0 {
		t.Fatal("worker death did not register as a shard retry")
	}
}

// cursedShard wraps runner so that shard 1 fails every attempt once it
// reaches sequence from: the run fails with the merge front parked there.
func cursedShard(runner dist.ShardRunner, from int) dist.ShardRunner {
	return dist.ShardRunnerFunc(func(ctx context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		if req.Shard != 1 {
			return runner.RunShard(ctx, req, emit)
		}
		return runner.RunShard(ctx, req, func(seq int, line []byte) error {
			if seq >= from {
				return fmt.Errorf("shard 1 is cursed from sequence %d", from)
			}
			return emit(seq, line)
		})
	})
}

// failFast gives a cursed shard two attempts, well under a second.
var failFast = dist.RetryPolicy{MaxAttempts: 2, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 5 * time.Millisecond}

// failRun runs spec to failure on a worker whose shard 1 is cursed from
// sequence from, leaving outPath and its sidecar behind.
func failRun(t *testing.T, runner dist.ShardRunner, from, shards int, spec dist.CampaignSpec, outPath string) {
	t.Helper()
	_, addr := startServer(t, cursedShard(runner, from))
	coord := &dist.Coordinator{
		Workers: []string{addr}, Shards: shards, Spec: spec, OutPath: outPath,
		StallTimeout: 5 * time.Second, Retry: failFast,
	}
	if _, err := coord.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "cursed") {
		t.Fatalf("run with a cursed shard: err = %v, want the curse", err)
	}
	if _, err := os.Stat(outPath + ".ckpt"); err != nil {
		t.Fatalf("failed run left no sidecar: %v", err)
	}
}

// TestDistResumeFromCheckpoint: a failed run leaves its output and the
// sidecar holding only its spec; the resumed run keeps the records the
// output holds intact, re-requests every shard from the end of them,
// completes exactly the missing sequence range, and removes the sidecar.
func TestDistResumeFromCheckpoint(t *testing.T) {
	const total = 20
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	cpPath := outPath + ".ckpt"
	spec := dist.CampaignSpec{System: "stub", Plugin: "stub", Seed: 3, Limit: total}

	// Run 1: shard 1 always fails — the run dies with the merge front
	// parked right behind shard 1's first sequence, so the output holds
	// seq 0 alone.
	failRun(t, healthyRunner(), 0, 2, spec, outPath)
	if got, _ := os.ReadFile(outPath); !bytes.Equal(got, wantStream(1)) {
		t.Fatalf("failed run's output = %q, want seq 0 alone", got)
	}
	cpData, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"campaign":{"system":"stub","plugin":"stub","seed":3,"limit":20}}` + "\n"; string(cpData) != want {
		t.Fatalf("sidecar = %s, want %s", cpData, want)
	}

	// A line that is not record 1 (a foreign or stale tail) ends the
	// intact prefix: the resume truncates it and re-fetches
	// deterministically.
	f, err := os.OpenFile(outPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"stale":true}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Run 2: healthy workers, resumed. Every shard request must carry the
	// output's record count as its start sequence.
	var mu sync.Mutex
	var startSeqs []int
	observed := dist.ShardRunnerFunc(func(_ context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		mu.Lock()
		startSeqs = append(startSeqs, req.StartSeq)
		mu.Unlock()
		return stubShard(req, emit)
	})
	_, addr2 := startServer(t, observed)
	coord2 := &dist.Coordinator{
		Workers:      []string{addr2},
		Shards:       2,
		Spec:         spec,
		OutPath:      outPath,
		Resume:       true,
		StallTimeout: 5 * time.Second,
		Retry:        fastRetry,
	}
	res, err := coord2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.StartSeq != 1 {
		t.Fatalf("resume started from %d, want 1", res.StartSeq)
	}
	mu.Lock()
	if len(startSeqs) != 2 {
		t.Fatalf("resume issued %d shard requests, want 2", len(startSeqs))
	}
	for _, s := range startSeqs {
		if s != 1 {
			t.Fatalf("resumed shard requested from sequence %d, want 1", s)
		}
	}
	mu.Unlock()
	if res.Summary.Injected != total-1 {
		t.Fatalf("resumed run injected %d, want %d (only the missing range)", res.Summary.Injected, total-1)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantStream(total)) {
		t.Fatalf("resumed output diverges:\n%s", got)
	}
	if _, err := os.Stat(cpPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint not removed after success: %v", err)
	}
}

// TestDistResumeJSONLCorruptLine: a JSONL output whose line 7 is damaged
// mid-file resumes from sequence 7 — the lines after the damage are
// dropped with it — and the result is byte-identical to an
// uninterrupted run.
func TestDistResumeJSONLCorruptLine(t *testing.T) {
	const total = 20
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	spec := dist.CampaignSpec{System: "stub", Plugin: "stub", Seed: 3, Limit: total}
	failRun(t, healthyRunner(), 0, 2, spec, outPath)

	want := wantStream(total)
	damaged := bytes.Replace(want, stubLine(7), stubLine(7)[:40], 1)
	if err := os.WriteFile(outPath, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, healthyRunner())
	coord := &dist.Coordinator{
		Workers: []string{addr}, Shards: 2, Spec: spec, OutPath: outPath, Resume: true,
		StallTimeout: 5 * time.Second, Retry: fastRetry,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.StartSeq != 7 {
		t.Fatalf("resume started from %d, want 7 (the damaged line)", res.StartSeq)
	}
	if got, _ := os.ReadFile(outPath); !bytes.Equal(got, want) {
		t.Fatalf("resumed output diverges:\n%s", got)
	}
}

// TestDistResumeRefusesDifferentSpec: a sidecar resumes only the
// campaign that wrote it. A different Port is refused with both specs in
// the error, and so is a sidecar that predates stored specs; neither
// refusal touches the output. A different Lifecycle, Memnet, deadlines
// and shard count resume to the same bytes.
func TestDistResumeRefusesDifferentSpec(t *testing.T) {
	const total = 20
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")
	cpPath := outPath + ".ckpt"
	spec := dist.CampaignSpec{System: "stub", Plugin: "stub", Seed: 3, Limit: total, Port: 1000}
	run := func(addr string, spec dist.CampaignSpec, shards int) (dist.Result, error) {
		c := &dist.Coordinator{
			Workers: []string{addr}, Shards: shards, Spec: spec, OutPath: outPath, Resume: true,
			StallTimeout: 5 * time.Second, Retry: fastRetry,
		}
		return c.Run(context.Background())
	}
	failRun(t, healthyRunner(), 0, 2, spec, outPath)
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	_, healthy := startServer(t, healthyRunner())
	untouched := func(what string) {
		t.Helper()
		if got, _ := os.ReadFile(outPath); !bytes.Equal(got, out) {
			t.Fatalf("%s changed the output: %q", what, got)
		}
	}

	moved := spec
	moved.Port = 2000
	_, err = run(healthy, moved, 2)
	if err == nil || !strings.Contains(err.Error(), "Port:1000") || !strings.Contains(err.Error(), "Port:2000") {
		t.Fatalf("resume under a different Port: err = %v, want a refusal naming both specs", err)
	}
	untouched("refused resume under a different Port")

	old := `{"system":"stub","plugin":"stub","seed":3,"shards":2,"front":1}` + "\n"
	if err := os.WriteFile(cpPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(healthy, spec, 2); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("resume from a checkpoint without a spec: err = %v, want a refusal", err)
	}
	untouched("refused resume from a checkpoint without a spec")

	// A sidecar from before it lost its progress fields still resumes:
	// they are ignored, and the output says where to resume.
	legacy := bytes.Replace(cp, []byte("}}\n"), []byte(`},"shards":2,"front":1}`+"\n"), 1)
	if err := os.WriteFile(cpPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	relived := spec
	relived.Lifecycle, relived.Memnet = "reload", true
	relived.ExperimentTimeout, relived.PhaseTimeout = time.Hour, time.Minute
	res, err := run(healthy, relived, 3)
	if err != nil {
		t.Fatalf("resume under a different Lifecycle, deadlines and shard count: %v", err)
	}
	if res.StartSeq != 1 {
		t.Fatalf("resume started from %d, want 1", res.StartSeq)
	}
	if got, _ := os.ReadFile(outPath); !bytes.Equal(got, wantStream(total)) {
		t.Fatalf("resumed output diverges:\n%s", got)
	}
}

// TestCoordinatorValidatesBeforeDial: a request every worker would
// reject fails the run before any connection is opened, and a valid
// spec's deadlines reach the worker inside the campaign spec.
func TestCoordinatorValidatesBeforeDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conn.Close()
		}
	}()
	coord := &dist.Coordinator{
		Workers: []string{ln.Addr().String()},
		Spec:    dist.CampaignSpec{System: "stub", Plugin: "stub", Limit: 4, PhaseTimeout: -1},
		Out:     io.Discard,
		Retry:   fastRetry,
	}
	if _, err := coord.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "negative watchdog timeout") {
		t.Fatalf("err = %v, want the request's validation error", err)
	}
	if n := accepted.Load(); n != 0 {
		t.Fatalf("coordinator opened %d connections for an invalid request", n)
	}

	var got atomic.Int64
	_, addr := startServer(t, dist.ShardRunnerFunc(func(_ context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		got.Store(int64(req.Campaign.PhaseTimeout))
		return stubShard(req, emit)
	}))
	coord.Workers, coord.Spec.PhaseTimeout = []string{addr}, 3*time.Second
	if _, err := coord.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(got.Load()); d != 3*time.Second {
		t.Fatalf("worker saw PhaseTimeout %v, want 3s", d)
	}
}

// TestDistTallyMode: tally-only campaigns move no record lines, only
// per-shard summaries.
func TestDistTallyMode(t *testing.T) {
	const total = 16
	_, addr := startServer(t, healthyRunner())
	var out bytes.Buffer
	coord := &dist.Coordinator{
		Workers:      []string{addr},
		Shards:       2,
		Spec:         dist.CampaignSpec{System: "stub", Plugin: "stub", Limit: total, TallyOnly: true},
		Out:          &out,
		StallTimeout: 5 * time.Second,
		Retry:        fastRetry,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("tally mode wrote %d bytes of records", out.Len())
	}
	if res.Records != total || res.Summary.Injected != total {
		t.Fatalf("tally result: records=%d injected=%d, want %d/%d", res.Records, res.Summary.Injected, total, total)
	}
}

// referenceCprof runs the campaign single-process through the matrix
// path at one worker into a cprof file — the bytes a distributed run
// merged to .cprof must equal — and returns the file's bytes.
func referenceCprof(t *testing.T, seed int64, limit, port int) []byte {
	t.Helper()
	entries, skipped, err := conferr.MatrixEntries([]string{"nginx"}, []string{"typo"}, conferr.GeneratorOptions{Seed: seed})
	if err != nil || len(skipped) > 0 || len(entries) != 1 {
		t.Fatalf("matrix entries: %v (skipped %v)", err, skipped)
	}
	entries[0].Port = port
	path := filepath.Join(t.TempDir(), "ref.cprof")
	cf, err := conferr.CreateCprof(path)
	if err != nil {
		t.Fatal(err)
	}
	mo := conferr.MatrixOptions{
		Workers: 1, Rounds: 1, Limit: limit, InMemory: true,
		SinkFor: func(e conferr.MatrixEntry) conferr.Sink {
			return conferr.StripDurations(cf.Sink(e.System, e.Plugin))
		},
	}
	if _, err := conferr.RunMatrix(context.Background(), entries, mo); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDistCprofOutByteIdentity: a distributed campaign merged straight
// into a cprof file is byte-identical to the single-process matrix run's
// cprof file — frames, index and trailer — and converts back to the
// JSONL reference stream.
func TestDistCprofOutByteIdentity(t *testing.T) {
	const (
		seed  = int64(13)
		limit = 30
		port  = 25903
	)
	ref := referenceStream(t, seed, limit, port)
	runner := conferr.NewDistRunner()
	_, a1 := startServer(t, runner)
	_, a2 := startServer(t, runner)

	outPath := filepath.Join(t.TempDir(), "merged.cprof")
	coord := &dist.Coordinator{
		Workers:      []string{a1, a2},
		Shards:       3,
		Spec:         realSpec(seed, limit, port),
		OutPath:      outPath,
		StallTimeout: 10 * time.Second,
		Retry:        fastRetry,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != limit {
		t.Fatalf("records = %d, want %d", res.Records, limit)
	}
	if got, _ := os.ReadFile(outPath); !bytes.Equal(got, referenceCprof(t, seed, limit, port)) {
		t.Fatal("cprof merge differs from the single-process cprof file")
	}
	var got bytes.Buffer
	if err := cprof.ToJSONL(outPath, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref) {
		t.Fatalf("cprof merge diverges from single-process reference:\n got %d bytes\nwant %d bytes", got.Len(), len(ref))
	}
}

// TestDistCprofResume: a run over 4 shards that fails mid-campaign past
// the first frame leaves a trailerless cprof file holding every merged
// record: one full frame and the unfinished one, cut short. The run
// resumed over 2 shards, fsyncing its output, keeps the full frame,
// writes the rest again, and the result is byte-identical to the
// single-process cprof file.
func TestDistCprofResume(t *testing.T) {
	const (
		seed  = int64(17)
		limit = 6000
		port  = 25904
	)
	outPath := filepath.Join(t.TempDir(), "resume.cprof")
	spec := realSpec(seed, limit, port)
	spec.Lifecycle = "reload"
	real := conferr.NewDistRunner()

	failRun(t, real, 5000, 4, spec, outPath)
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	frames, fromIndex, err := cprof.ReadIndex(f, st.Size())
	f.Close()
	if err != nil || fromIndex || len(frames) != 2 || frames[0].Count != cprof.DefaultFrameRecords || frames[1].LastSeq != 5000 {
		t.Fatalf("failed run's output: frames %+v (fromIndex=%v, err=%v), want records 0..5000 in a full frame and a short one, and no trailer", frames, fromIndex, err)
	}

	_, addr := startServer(t, real)
	coord := &dist.Coordinator{
		Workers: []string{addr}, Shards: 2, Spec: spec, OutPath: outPath, Resume: true,
		StallTimeout: 10 * time.Second, Retry: fastRetry, SyncOutput: true,
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.StartSeq != cprof.DefaultFrameRecords || res.Records != limit {
		t.Fatalf("resume: start %d, records %d, want %d and %d", res.StartSeq, res.Records, cprof.DefaultFrameRecords, limit)
	}
	if got, _ := os.ReadFile(outPath); !bytes.Equal(got, referenceCprof(t, seed, limit, port)) {
		t.Fatal("resumed cprof merge differs from the single-process cprof file")
	}
	if _, err := os.Stat(outPath + ".ckpt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint not removed after success: %v", err)
	}
}

// frameConn speaks the wire protocol by hand for protocol-level tests.
type frameConn struct {
	conn net.Conn
	sc   *bufio.Scanner
}

func dialFrames(t *testing.T, addr string) *frameConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &frameConn{conn: conn, sc: sc}
}

func (fc *frameConn) send(t *testing.T, line string) {
	t.Helper()
	if _, err := fmt.Fprintln(fc.conn, line); err != nil {
		t.Fatal(err)
	}
}

// recordLine is the Type next gives a record line, which carries none.
const recordLine = "record"

// wireMsg is one line a worker sent: a control frame, or a record line
// (Type recordLine, Rec the line).
type wireMsg struct {
	dist.Frame
	Rec []byte
}

func (fc *frameConn) next(t *testing.T) (wireMsg, error) {
	t.Helper()
	if !fc.sc.Scan() {
		if err := fc.sc.Err(); err != nil {
			return wireMsg{}, err
		}
		return wireMsg{}, io.EOF
	}
	line := fc.sc.Bytes()
	if !bytes.HasPrefix(line, []byte(`{"type":`)) {
		if !json.Valid(line) {
			t.Fatalf("record line %q is not JSON", line)
		}
		return wireMsg{Frame: dist.Frame{Type: recordLine}, Rec: bytes.Clone(line)}, nil
	}
	var m wireMsg
	if err := json.Unmarshal(line, &m.Frame); err != nil {
		t.Fatalf("undecodable frame %q: %v", line, err)
	}
	return m, nil
}

// TestDistProtocolVersionMismatchOverWire: a coordinator speaking the
// wrong (or no) protocol version gets a clear error frame naming both
// versions, before any campaign state is built.
func TestDistProtocolVersionMismatchOverWire(t *testing.T) {
	_, addr := startServer(t, healthyRunner())
	cases := []struct{ line, want string }{
		{fmt.Sprintf(`{"type":"run","proto":%d,"campaign":{"system":"s","plugin":"p"},"shard":0,"shards":1}`,
			dist.ProtocolVersion+7), "protocol version mismatch"},
		{`{"type":"run","campaign":{"system":"s","plugin":"p"},"shard":0,"shards":1}`,
			"no protocol version"},
	}
	for _, tc := range cases {
		fc := dialFrames(t, addr)
		fc.send(t, tc.line)
		f, err := fc.next(t)
		if err != nil {
			t.Fatalf("no error frame for %q: %v", tc.line, err)
		}
		if f.Type != dist.TypeError || !strings.Contains(f.Err, tc.want) {
			t.Fatalf("frame for %q = %+v, want error mentioning %q", tc.line, f, tc.want)
		}
	}
}

// validStubRequest renders a current-protocol request for the stub runner.
func validStubRequest(limit int) string {
	return fmt.Sprintf(`{"type":"run","proto":%d,"campaign":{"system":"stub","plugin":"stub","limit":%d},"shard":0,"shards":1}`,
		dist.ProtocolVersion, limit)
}

// TestDistDrainSendsExplicitErrorFrame: Drain lets an in-flight shard
// finish its current frame, then aborts it with an explicit error frame
// — a goodbye, not a severed connection.
func TestDistDrainSendsExplicitErrorFrame(t *testing.T) {
	slow := dist.ShardRunnerFunc(func(_ context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
		for seq := req.Shard; seq < req.Campaign.Limit; seq += req.Shards {
			time.Sleep(2 * time.Millisecond)
			if err := emit(seq, stubLine(seq)); err != nil {
				return dist.ShardResult{}, err
			}
		}
		return dist.ShardResult{Records: req.Campaign.Limit}, nil
	})
	srv, addr := startServer(t, slow)
	fc := dialFrames(t, addr)
	fc.send(t, validStubRequest(5000))

	recs := 0
	drained := false
	for {
		f, err := fc.next(t)
		if err != nil {
			t.Fatalf("connection severed without a goodbye frame (after %d records): %v", recs, err)
		}
		switch f.Type {
		case recordLine:
			recs++
			if recs == 3 && !drained {
				drained = true
				if err := srv.Drain(); err != nil {
					t.Fatal(err)
				}
			}
		case dist.TypeProgress:
		case dist.TypeError:
			if !drained {
				t.Fatalf("premature error frame: %q", f.Err)
			}
			if !strings.Contains(f.Err, "draining") {
				t.Fatalf("drain goodbye = %q, want a draining complaint", f.Err)
			}
			if recs < 3 {
				t.Fatalf("drain cut the stream at %d records, before the in-flight frames", recs)
			}
			return
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
}

// TestDistDrainCancelsSilentShard: a shard that emits nothing (stuck in
// generation, a long experiment) is cancelled after DrainGrace and still
// says goodbye with an error frame.
func TestDistDrainCancelsSilentShard(t *testing.T) {
	blocked := dist.ShardRunnerFunc(func(ctx context.Context, _ dist.ShardRequest, _ func(int, []byte) error) (dist.ShardResult, error) {
		<-ctx.Done()
		return dist.ShardResult{}, ctx.Err()
	})
	srv := &dist.Server{Runner: blocked, Heartbeat: 10 * time.Millisecond, DrainGrace: 30 * time.Millisecond}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(context.Background(), ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	fc := dialFrames(t, ln.Addr().String())
	fc.send(t, validStubRequest(10))
	// Wait for a heartbeat so the shard is known to be in flight.
	if f, err := fc.next(t); err != nil || f.Type != dist.TypeProgress {
		t.Fatalf("first frame = %+v (%v), want progress", f, err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no goodbye frame after drain grace")
		}
		f, err := fc.next(t)
		if err != nil {
			t.Fatalf("connection severed without a goodbye frame: %v", err)
		}
		if f.Type == dist.TypeError {
			return
		}
	}
}

// TestDistChaosSoakByteIdentity is the chaos soak: a 20k-scenario real
// campaign distributed over workers whose protocol connections suffer
// injected latency spikes, split writes and mid-frame resets still
// merges byte-identical to the fault-free single-process reference.
func TestDistChaosSoakByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-scenario chaos soak")
	}
	const (
		seed = int64(23)
		port = 25905
		want = 20000
	)
	ref := referenceStream(t, seed, want, port)
	base := bytes.Count(ref, []byte("\n"))
	rounds := 1
	if base < want {
		rounds = (want + base - 1) / base
		ref = referenceStreamRounds(t, seed, rounds, want, port)
	}
	total := bytes.Count(ref, []byte("\n"))
	t.Logf("chaos soak faultload: %d records (%d base x %d rounds, capped %d)", total, base, rounds, want)

	runner := conferr.NewDistRunner()
	inj := chaos.NewInjector(chaos.Config{
		Seed:        99,
		LatencyProb: 0.0005, LatencyMax: time.Millisecond,
		SplitProb: 0.01,
		ResetProb: 0.0002,
	})
	mkServer := func() string {
		srv := &dist.Server{Runner: runner, Heartbeat: 50 * time.Millisecond, WrapConn: inj.Wrap}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(context.Background(), ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		return ln.Addr().String()
	}
	spec := realSpec(seed, want, port)
	spec.Rounds = rounds

	var out bytes.Buffer
	coord := &dist.Coordinator{
		Workers:      []string{mkServer(), mkServer()},
		Shards:       4,
		Spec:         spec,
		Out:          &out,
		StallTimeout: 30 * time.Second,
		Retry:        dist.RetryPolicy{MaxAttempts: 100, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond},
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != total {
		t.Fatalf("records = %d, want %d", res.Records, total)
	}
	if !bytes.Equal(out.Bytes(), ref) {
		t.Fatalf("chaos-exposed stream diverges from fault-free reference:\n got %d bytes\nwant %d bytes", out.Len(), len(ref))
	}
	t.Logf("chaos soak: %d records merged, %d retries, %d duplicates dropped", res.Records, res.Retries, res.Duplicates)
}
