package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"conferr/internal/profile"
)

// ShardResult is what a ShardRunner reports when a shard completes.
type ShardResult struct {
	// Records is the shard's total scenario count, StartSeq-skipped
	// scenarios included — the number the coordinator sums to gap-check
	// the merged stream.
	Records int
	// Summary tallies the outcomes of the experiments this run executed.
	Summary profile.Summary
}

// ShardRunner executes one shard of a campaign described by a spec. The
// production implementation (wired in by cmd/sutd via the conferr
// facade's registry) builds the campaign and drives core.RunShard; tests
// substitute deterministic fakes. emit receives each record's global
// sequence number and its fully rendered JSONL line (no trailing
// newline); emit is never called for sequences below req.StartSeq.
type ShardRunner interface {
	RunShard(ctx context.Context, req ShardRequest, emit func(seq int, line []byte) error) (ShardResult, error)
}

// ShardRunnerFunc adapts a function to ShardRunner.
type ShardRunnerFunc func(ctx context.Context, req ShardRequest, emit func(seq int, line []byte) error) (ShardResult, error)

// RunShard implements ShardRunner.
func (f ShardRunnerFunc) RunShard(ctx context.Context, req ShardRequest, emit func(seq int, line []byte) error) (ShardResult, error) {
	return f(ctx, req, emit)
}

// Server is the campaign worker daemon: it accepts one shard request per
// TCP connection, executes it through the configured runner, and streams
// record frames (or a tally summary) back, with periodic progress
// heartbeats so the coordinator can tell a long experiment from a dead
// worker. Connections are independent — one daemon serves shards of
// several campaigns, or several shards of one, concurrently.
type Server struct {
	// Runner executes shards.
	Runner ShardRunner
	// Heartbeat is the progress-frame interval (0 selects 1s).
	Heartbeat time.Duration
	// WrapConn, when non-nil, wraps every accepted connection before the
	// protocol touches it — the chaos layer's injection point (see
	// internal/chaos), also usable for instrumentation.
	WrapConn func(net.Conn) net.Conn
	// DrainGrace bounds how long Drain lets a shard keep running before
	// its context is cancelled (0 selects 2s). Shards that emit a frame
	// during the grace period abort at that frame boundary instead.
	DrainGrace time.Duration
	// Logf, when non-nil, receives serve-loop diagnostics.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	cancels  map[net.Conn]context.CancelFunc
	closed   bool
	draining atomic.Bool
}

// errDraining aborts in-flight shards at their next frame boundary when
// the server is draining.
var errDraining = errors.New("dist: worker draining")

// Drain begins a graceful shutdown: the listener closes (new dials fail,
// so coordinators reassign work elsewhere), in-flight shards finish the
// frame they are on and then abort with an explicit error frame — the
// coordinator retries the shard from its resume front instead of
// diagnosing a severed connection — and shards that stay silent past
// DrainGrace (generation phase, a long experiment) have their contexts
// cancelled. Serve returns once every handler has said goodbye.
func (s *Server) Drain() error {
	if s.draining.Swap(true) {
		return nil
	}
	s.mu.Lock()
	ln := s.ln
	cancels := make([]context.CancelFunc, 0, len(s.cancels))
	for _, cancel := range s.cancels {
		cancels = append(cancels, cancel)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if len(cancels) > 0 {
		grace := s.DrainGrace
		if grace <= 0 {
			grace = 2 * time.Second
		}
		time.AfterFunc(grace, func() {
			for _, cancel := range cancels {
				cancel()
			}
		})
	}
	return err
}

// Serve accepts connections on ln until the context is cancelled, the
// listener fails, or Close is called. It always returns a non-nil error;
// after a clean shutdown that error wraps net.ErrClosed.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()

	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = s.Close() })
		defer stop()
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			return err
		}
		if s.WrapConn != nil {
			conn = s.WrapConn(conn)
		}
		if !s.track(conn) {
			_ = conn.Close()
			return net.ErrClosed
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.untrack(conn)
			s.handle(ctx, conn)
		}()
	}
}

// Close shuts the server down: the listener stops accepting and every
// active connection is severed — from a coordinator's point of view this
// is a worker dying mid-shard, which is exactly what the test suite uses
// it for.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return err
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handle serves one shard request on one connection.
func (s *Server) handle(ctx context.Context, conn net.Conn) {
	var req ShardRequest
	if err := newLineReader(conn).next(&req); err != nil {
		s.logf("dist: %s: reading request: %v", conn.RemoteAddr(), err)
		return
	}
	if err := req.Validate(); err != nil {
		_ = writeMsg(conn, Frame{Type: TypeError, Err: err.Error()})
		return
	}
	s.logf("dist: %s: shard %d/%d of %s/%s from seq %d",
		conn.RemoteAddr(), req.Shard, req.Shards, req.Campaign.System, req.Campaign.Plugin, req.StartSeq)

	// Writes to the connection interleave two producers — the runner's
	// record frames and the heartbeat ticker — so they serialize on wmu.
	// Record frames collect in bw; every other frame flushes it, so the
	// heartbeat bounds how long a record waits, exactly as it bounds the
	// coordinator's stall detection.
	var wmu sync.Mutex
	bw := bufio.NewWriterSize(conn, frameBufSize)
	send := func(f Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := writeMsg(bw, f); err != nil {
			return err
		}
		return flushFrames(bw)
	}
	sendRec := func(seq int, line []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeRecFrame(bw, seq, line)
	}

	// The shard aborts when the connection dies: a failed write or flush
	// cancels runCtx, and so does the read-side watch below. Drain
	// cancels it too, after its grace period.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.mu.Lock()
	if s.cancels == nil {
		s.cancels = make(map[net.Conn]context.CancelFunc)
	}
	s.cancels[conn] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.cancels, conn)
		s.mu.Unlock()
	}()

	// Record frames reach the connection only at the next flush, so a
	// failed write can lag a dead peer by a heartbeat or more. The read
	// side watches instead: the coordinator sends nothing after its
	// request, so any read result — EOF, a reset, stray bytes — means
	// nobody is left to deliver the shard to.
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		var b [1]byte
		_, _ = conn.Read(b[:])
		cancel()
	}()
	defer func() {
		// Closing ends the watch's Read; Serve closes conn after handle
		// returns anyway.
		_ = conn.Close()
		<-watchDone
	}()

	var lastSeq, emitted int
	var progressMu sync.Mutex
	hb := s.Heartbeat
	if hb <= 0 {
		hb = time.Second
	}
	hbDone := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-t.C:
				progressMu.Lock()
				seq, n := lastSeq, emitted
				progressMu.Unlock()
				if n == 0 {
					// Nothing completed yet (long generation phase, or all
					// sequences below StartSeq): heartbeat the start front so
					// the coordinator still sees liveness.
					seq = req.StartSeq
				}
				if err := send(Frame{Type: TypeProgress, Seq: seq}); err != nil {
					cancel()
					return
				}
			}
		}
	}()

	emit := func(seq int, line []byte) error {
		if s.draining.Load() {
			// Graceful drain: this frame is the shard's last. The runner
			// aborts, the handler sends an explicit error frame, and the
			// coordinator reschedules from its resume front.
			return errDraining
		}
		if err := runCtx.Err(); err != nil {
			return err
		}
		if !req.Campaign.TallyOnly {
			if err := sendRec(seq, line); err != nil {
				cancel()
				return err
			}
		}
		progressMu.Lock()
		lastSeq, emitted = seq, emitted+1
		progressMu.Unlock()
		return nil
	}

	res, err := s.runShard(runCtx, req, emit)
	close(hbDone)
	hbWG.Wait()
	if err != nil {
		s.logf("dist: %s: shard %d/%d failed: %v", conn.RemoteAddr(), req.Shard, req.Shards, err)
		_ = send(Frame{Type: TypeError, Err: err.Error()})
		return
	}
	sum := res.Summary
	_ = send(Frame{Type: TypeDone, Records: res.Records, Summary: &sum})
}

// frameBufSize is the worker's write buffer: about fifty typical rec
// frames per write. On dist-loopback, 64 KiB was no faster and delayed
// the first record by filling longer.
const frameBufSize = 16 * 1024

// runShard invokes the runner behind a panic boundary: a panicking
// runner (a buggy plugin surviving the engine's own containment, a bug
// in the shard plumbing) becomes an error frame on this connection —
// the coordinator retries the shard — instead of killing the daemon and
// every other shard it is serving.
func (s *Server) runShard(ctx context.Context, req ShardRequest, emit func(int, []byte) error) (res ShardResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("dist: worker panic: %v\n%s", v, debug.Stack())
		}
	}()
	return s.Runner.RunShard(ctx, req, emit)
}

// ListenAndServe listens on addr and serves until ctx is cancelled.
// ready, when non-nil, receives the bound address once — callers that
// listen on ":0" learn the allocated port.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr())
	}
	err = s.Serve(ctx, ln)
	if errors.Is(err, net.ErrClosed) && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}
