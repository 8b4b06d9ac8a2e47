package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"conferr/internal/profile"
	"conferr/internal/profile/cprof"
)

// Coordinator schedules the Shards shards of one campaign across worker
// daemons, retries failed or stalled shards with capped exponential
// backoff, and merges the shard streams into one deterministic,
// gap-checked profile. Records are written in exact sequence order, so
// the output is byte-identical to a single-process run of the same
// campaign, and the output is its own checkpoint: the records it holds
// intact are a gap-free prefix, and a resumed coordinator re-requests
// every shard from that prefix's end while workers skip the prefix
// without re-injecting it. A sidecar, <OutPath>.ckpt, holds only the
// spec, so a resume cannot continue a different campaign's output.
type Coordinator struct {
	// Workers are the worker daemon endpoints (host:port).
	Workers []string
	// Shards is the shard count (0 selects one per worker). More shards
	// than workers is normal — it is the unit of retry and rebalancing.
	Shards int
	// Spec describes the campaign every worker re-derives its slice of,
	// watchdog deadlines included; every shard request carries it as is.
	Spec CampaignSpec
	// Out, when non-nil, receives the merged record stream, one JSONL
	// line per Write; such a run cannot be resumed. Otherwise a non-empty
	// OutPath names the merged profile, in the format its name picks
	// (compact frames for a .cprof name, else JSONL), and the sidecar
	// <OutPath>.ckpt is written beside it at start and removed on
	// success. A tally run takes no OutPath.
	Out     io.Writer
	OutPath string
	// Resume continues the OutPath a failed or killed run left: after
	// the sidecar's spec is checked against Spec, the output keeps its
	// intact prefix (cprof.ResumePath) and only the sequences past it
	// are run. A missing sidecar degrades to a fresh run.
	Resume bool
	// DialTimeout bounds connection establishment (0 selects 5s).
	DialTimeout time.Duration
	// StallTimeout bounds the gap between worker frames (0 selects 15s);
	// heartbeats keep a healthy connection under it, so expiry means the
	// worker died or wedged and the shard is reassigned.
	StallTimeout time.Duration
	// Retry shapes per-shard retries.
	Retry RetryPolicy
	// SyncOutput fsyncs the OutPath file on every flush (one per
	// cprof.DefaultFrameRecords merged records) and as it closes, after
	// its last frame and trailer, so a host crash loses at most the
	// records since the last flush.
	SyncOutput bool
	// Logf, when non-nil, receives scheduling diagnostics.
	Logf func(format string, args ...any)
}

// Result summarizes a completed distributed campaign.
type Result struct {
	// Records is the campaign's total scenario count (the merged stream
	// is exactly sequences 0..Records-1).
	Records int
	// Summary tallies the experiments executed in this run — on resume,
	// only the completed missing range.
	Summary profile.Summary
	// Duplicates counts re-delivered records dropped by the merger.
	Duplicates int
	// Retries counts shard attempts beyond each shard's first.
	Retries int
	// StartSeq is the resume front this run started from (0 when fresh).
	StartSeq int
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// coordState is the shared mutable half of a run: the merger, the tally,
// completion bookkeeping, and the failure latch.
type coordState struct {
	open      recordOpening // immutable: what the campaign's lines open with
	mu        sync.Mutex
	merger    *profile.SeqMerger
	flush     func() error
	flushed   int // merge front at the last flush
	summary   profile.Summary
	shardDone map[int]bool
	total     int // sum of done-frame Records across shards
	retries   int
	live      int // endpoints not yet retired
	err       error
	doneCh    chan struct{}
	cancel    context.CancelFunc
	logf      func(string, ...any)
}

func (st *coordState) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failLocked(err)
}

func (st *coordState) failLocked(err error) {
	if st.err == nil {
		st.err = err
		close(st.doneCh)
		st.cancel()
	}
}

// addRec feeds one record line to the merger, flushing the output once
// a frame's worth of records has merged since the last flush.
func (st *coordState) addRec(seq int, line []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.merger == nil {
		return fmt.Errorf("dist: record line in tally mode (seq %d)", seq)
	}
	if err := st.merger.Add(seq, line); err != nil {
		// Merge errors (corruption, write failure) poison the whole run,
		// not just this attempt.
		st.failLocked(err)
		return err
	}
	if st.flush != nil && st.merger.Front()-st.flushed >= cprof.DefaultFrameRecords {
		if err := st.flush(); err != nil {
			st.failLocked(err)
			return err
		}
		st.flushed = st.merger.Front()
	}
	return nil
}

// finishShard records one shard's completion; returns true when it was
// the campaign's last.
func (st *coordState) finishShard(shard, records int, sum *profile.Summary, shards int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.shardDone[shard] {
		return false
	}
	st.shardDone[shard] = true
	st.total += records
	if sum != nil {
		st.summary.Merge(*sum)
	}
	if len(st.shardDone) == shards {
		if st.err == nil {
			close(st.doneCh)
		}
		return true
	}
	return false
}

func (st *coordState) retire(endpoint string, shards int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.live--
	st.logf("dist: retiring worker %s (%d live)", endpoint, st.live)
	if st.live == 0 && len(st.shardDone) < shards {
		st.failLocked(errors.New("dist: all workers unavailable with shards outstanding"))
	}
}

// shardTask is one shard's place in the scheduling queue. attempts
// counts established-connection failures only; dial failures are charged
// to the endpoint, not the shard.
type shardTask struct {
	shard    int
	attempts int
	lastErr  error
}

// Run executes the campaign and blocks until it completes, fails, or ctx
// is cancelled.
func (c *Coordinator) Run(ctx context.Context) (Result, error) {
	if len(c.Workers) == 0 {
		return Result{}, errors.New("dist: no workers")
	}
	shards := c.Shards
	if shards <= 0 {
		shards = len(c.Workers)
	}
	// Shard requests differ from this one only in Shard and StartSeq: one
	// that every worker would reject fails here, before any dial.
	req := ShardRequest{Type: TypeRun, Proto: ProtocolVersion, Campaign: c.Spec, Shards: shards}
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	retry := c.Retry.withDefaults()
	dialTO := c.DialTimeout
	if dialTO <= 0 {
		dialTO = 5 * time.Second
	}
	stallTO := c.StallTimeout
	if stallTO <= 0 {
		stallTO = 15 * time.Second
	}
	tally := c.Spec.TallyOnly
	if tally && c.OutPath != "" {
		return Result{}, errors.New("dist: a tally run sends no records: it takes no output")
	}
	if c.Resume && c.OutPath == "" {
		return Result{}, errors.New("dist: resume needs an output file: the merged profile is what a run resumes from")
	}

	var (
		w        io.Writer = io.Discard
		out      *cprof.File
		flush    func() error
		closeOut func(complete bool) error
		cpPath   string
		startSeq int
	)
	switch {
	case tally:
	case c.Out != nil:
		w = c.Out
	case c.OutPath != "":
		cpPath = c.OutPath + ".ckpt"
		var err error
		if out, startSeq, err = c.openOutput(cpPath); err != nil {
			return Result{}, err
		}
		// Written after the output is opened: a fresh run has truncated
		// whatever another campaign left there before its spec lands.
		if err := writeCheckpoint(cpPath, Checkpoint{Spec: c.Spec}); err != nil {
			out.Close(false)
			return Result{}, err
		}
		w, flush, closeOut = out, out.Flush, out.Close
		if c.SyncOutput {
			flush, closeOut = out.Sync, out.SyncClose
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &coordState{
		open:      newRecordOpening(c.Spec),
		flush:     flush,
		flushed:   startSeq,
		shardDone: make(map[int]bool, shards),
		live:      len(c.Workers),
		doneCh:    make(chan struct{}),
		cancel:    cancel,
		logf:      c.logf,
	}
	if !tally {
		st.merger = profile.NewSeqMerger(w, startSeq)
	}

	// Retries restart from the same resume front as the original attempt,
	// never the live merge front: the done-frame Summary must tally every
	// shard-owned sequence past startSeq exactly once, and the merger
	// dedups whatever the retry re-delivers.
	req.StartSeq = startSeq
	tasks := make(chan *shardTask, shards)
	for i := 0; i < shards; i++ {
		tasks <- &shardTask{shard: i}
	}

	var wg sync.WaitGroup
	for _, ep := range c.Workers {
		wg.Add(1)
		go func(endpoint string) {
			defer wg.Done()
			c.serveEndpoint(runCtx, endpoint, st, tasks, req, retry, dialTO, stallTO)
		}(ep)
	}

	select {
	case <-st.doneCh:
	case <-ctx.Done():
		st.fail(ctx.Err())
	}
	cancel()
	wg.Wait()

	st.mu.Lock()
	runErr := st.err
	retries := st.retries
	total := st.total
	summary := st.summary
	merger := st.merger
	st.mu.Unlock()

	res := Result{Records: total, Summary: summary, Retries: retries, StartSeq: startSeq}
	if merger != nil {
		res.Duplicates = merger.Duplicates()
	}
	if runErr == nil && merger != nil {
		if err := merger.GapCheck(total); err != nil {
			runErr = err
		}
	}
	if out != nil {
		if err := closeOut(runErr == nil); err != nil && runErr == nil {
			runErr = fmt.Errorf("dist: finishing output: %w", err)
		}
	}
	if runErr != nil {
		// Leave the sidecar behind: the output is resumable from the
		// records it holds.
		return res, runErr
	}
	if cpPath != "" {
		if err := os.Remove(cpPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			c.logf("dist: removing checkpoint: %v", err)
		}
	}
	return res, nil
}

// openOutput opens OutPath for a run: truncated when fresh, or, on
// resume, at the end of the records it holds intact, which are then the
// run's start sequence. A resume first checks the sidecar at cpPath
// against Spec; a missing one makes the run fresh.
func (c *Coordinator) openOutput(cpPath string) (*cprof.File, int, error) {
	if c.Resume {
		cp, err := loadCheckpoint(cpPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			c.logf("dist: no checkpoint at %s, starting fresh", cpPath)
		case err != nil:
			return nil, 0, err
		default:
			if err := cp.matches(c.Spec); err != nil {
				return nil, 0, err
			}
			out, front, err := cprof.ResumePath(c.OutPath)
			if err == nil {
				c.logf("dist: resuming from sequence %d", front)
			}
			return out, front, err
		}
	}
	out, err := cprof.OpenPath(c.OutPath)
	return out, 0, err
}

// serveEndpoint is one worker endpoint's scheduling loop: pull a shard,
// attempt it, and classify failures — dial failures retire the endpoint
// after a streak, established-connection failures charge the shard's
// attempt budget and requeue it after backoff for any endpoint to pick
// up.
func (c *Coordinator) serveEndpoint(ctx context.Context, endpoint string, st *coordState, tasks chan *shardTask, req ShardRequest, retry RetryPolicy, dialTO, stallTO time.Duration) {
	dialFails := 0
	requeue := func(task *shardTask, after time.Duration) {
		if after <= 0 {
			select {
			case tasks <- task:
			case <-st.doneCh:
			}
			return
		}
		go func() {
			t := time.NewTimer(after)
			defer t.Stop()
			select {
			case <-t.C:
				select {
				case tasks <- task:
				case <-st.doneCh:
				}
			case <-st.doneCh:
			}
		}()
	}
	for {
		var task *shardTask
		select {
		case <-st.doneCh:
			return
		case task = <-tasks:
		}
		err, dialErr := c.attempt(ctx, endpoint, st, task, req, stallTO, dialTO)
		if err == nil {
			dialFails = 0
			continue
		}
		if ctx.Err() != nil {
			requeue(task, 0)
			return
		}
		if dialErr {
			// The worker would not even answer the phone: hand the shard
			// straight back for a healthier endpoint, throttle this one, and
			// retire it after a streak.
			requeue(task, 0)
			dialFails++
			c.logf("dist: %s: dial failed (%d consecutive): %v", endpoint, dialFails, err)
			if dialFails >= retry.MaxAttempts {
				st.retire(endpoint, req.Shards)
				return
			}
			t := time.NewTimer(retry.Backoff(dialFails))
			select {
			case <-t.C:
			case <-st.doneCh:
				t.Stop()
				return
			}
			t.Stop()
			continue
		}
		dialFails = 0
		task.attempts++
		task.lastErr = err
		st.mu.Lock()
		st.retries++
		st.mu.Unlock()
		c.logf("dist: shard %d attempt %d failed on %s: %v", task.shard, task.attempts, endpoint, err)
		if task.attempts >= retry.MaxAttempts {
			st.fail(fmt.Errorf("dist: shard %d failed after %d attempts: %w", task.shard, task.attempts, err))
			return
		}
		requeue(task, retry.Backoff(task.attempts))
	}
}

// attempt runs one shard on one endpoint: dial, send req for the task's
// shard, and consume its lines until done or failure. The second return
// reports a dial failure (endpoint's fault) as opposed to an
// established-connection one (charged to the shard's attempt budget).
func (c *Coordinator) attempt(ctx context.Context, endpoint string, st *coordState, task *shardTask, req ShardRequest, stallTO, dialTO time.Duration) (err error, dialErr bool) {
	d := net.Dialer{Timeout: dialTO}
	conn, cerr := d.DialContext(ctx, "tcp", endpoint)
	if cerr != nil {
		return cerr, true
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()

	req.Shard = task.shard
	if err := writeMsg(conn, req); err != nil {
		return err, false
	}

	lr := newLineReader(conn)
	var f Frame
	for {
		if err := conn.SetReadDeadline(time.Now().Add(stallTO)); err != nil {
			return err, false
		}
		line, err := lr.line()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return errors.New("dist: worker closed connection mid-shard"), false
			}
			if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				return fmt.Errorf("dist: shard stalled: no frame for %v", stallTO), false
			}
			return err, false
		}
		seq, rec, err := st.open.decodeFrame(line, &f)
		if err != nil {
			return err, false
		}
		if rec {
			if err := st.addRec(seq, line); err != nil {
				return err, false
			}
			continue
		}
		switch f.Type {
		case TypeProgress:
			// Liveness only; arrival already reset the stall deadline.
		case TypeDone:
			st.finishShard(task.shard, f.Records, f.Summary, req.Shards)
			c.logf("dist: shard %d/%d done on %s (%d records)", task.shard, req.Shards, endpoint, f.Records)
			return nil, false
		case TypeError:
			return fmt.Errorf("dist: worker error: %s", f.Err), false
		default:
			return fmt.Errorf("dist: unknown frame type %q", f.Type), false
		}
	}
}
