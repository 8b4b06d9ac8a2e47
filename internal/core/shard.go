package core

import (
	"context"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"conferr/internal/profile"
	"conferr/internal/scenario"
)

// This file is the campaign engine: one worker loop, runWorkers, that
// every run goes through. Each worker pulls (sequence, scenario) pairs
// from a feed, injects them on its private target and hands the records
// to a stage. The feed is chosen by generator (openFeed): a pure
// generator's shard derived by each worker (genFeed), or, for any other
// generator's stream, one shared pull (pullFeed, behind RunContext and
// RunStream) or a per-shard stride (strideFeed, behind RunShard). The
// faultload is never materialized. The stage is chosen by sink: the
// ordered reassembly ring, in which records are parked until their
// predecessors flush, drained cooperatively by whichever worker fills the
// next gap; the order-insensitive bypass, in which each worker folds its
// records into its own sub-sink (profile.ShardableSink); or RunShard's
// emit (shardrun.go).

// shardFeed drives worker k of n over its part of the faultload: emit is
// called with each scenario and its global sequence number, in increasing
// sequence order, until the part ends or emit returns false. A non-nil
// error reports a generation (or validation) failure; stopSeq is then the
// first sequence at or past the failure that this worker would have
// owned, which lets the engine flush everything before the failure point
// and agree with a one-worker run on where the stream broke.
type shardFeed func(k, n int, emit func(seq int, sc scenario.Scenario) bool) (stopSeq int, err error)

// genFeed shards a streaming generator: each worker derives its own
// identical stream (ShardedGenerator's purity contract) and keeps stride
// k. A generator that walks (scenario.Walk) builds only stride k and
// steps over the other positions, so a worker's generation costs
// O(scenarios it runs) builds plus O(positions) skips; any other renders
// the whole stream and filters it. Scenarios are shape-validated as they
// stream past (checkScenario), exactly like the unsharded streaming
// path.
func genFeed(c *Campaign, fl *faultload, sg ShardedGenerator) shardFeed {
	return func(k, n int, emit func(int, scenario.Scenario) bool) (int, error) {
		j := 0
		var gerr error
		sg.GenerateShard(fl.viewSet, k, n)(func(sc scenario.Scenario, serr error) bool {
			if serr != nil {
				gerr = fmt.Errorf("core: generating scenarios: %w", serr)
				return false
			}
			// The j-th scenario of shard k sits at position j*n+k of the
			// unsharded stream, so the index in validation errors matches
			// a one-worker run's.
			seq := j*n + k
			if gerr = c.checkScenario(seq, sc); gerr != nil {
				return false
			}
			j++
			return emit(seq, sc)
		})
		return j*n + k, gerr
	}
}

// pullFeed shares one opaque, single-use stream between all workers:
// each pull holds a mutex, because a pulled iterator takes one caller at
// a time, and numbers the scenario at pull time. The
// stream is generated exactly once per run, which is what a generator
// without GenerateShard needs — it may consume RNG state on every
// GenerateStream call (see StreamingGenerator), so it cannot be derived
// again per worker the way genFeed does. stop releases the stream; call
// it after the workers exit.
func pullFeed(src scenario.Source) (feed shardFeed, stop func()) {
	next, stop := iter.Pull2(iter.Seq2[scenario.Scenario, error](src))
	var mu sync.Mutex
	seq := 0
	pull := func() (int, scenario.Scenario, error, bool) {
		mu.Lock()
		defer mu.Unlock() // a generator panic surfaces from next
		sc, err, ok := next()
		seq++
		return seq - 1, sc, err, ok
	}
	return func(_, _ int, emit func(int, scenario.Scenario) bool) (int, error) {
		for {
			s, sc, err, ok := pull()
			if !ok {
				return math.MaxInt, nil
			}
			if err != nil {
				return s, err
			}
			if !emit(s, sc) {
				return math.MaxInt, nil
			}
		}
	}, stop
}

// stage is where the worker loop's records go: the ordered shardRing,
// the order-insensitive bypass or RunShard's shardEmit. All workers call
// its methods concurrently.
type stage interface {
	// admit reports whether the scenario at seq runs and, when it does
	// not, whether the worker keeps pulling.
	admit(seq int) (run, cont bool)
	// deposit takes worker k's completed experiment. It reports whether
	// the record was written (the worker counts it) and whether the
	// worker keeps going.
	deposit(k, seq int, rec profile.Record, err error) (wrote, cont bool)
	// genErr records a feed's generation failure at stopSeq.
	genErr(stopSeq int, err error)
	// stop ends the run: no new scenario starts. A non-nil err (a
	// worker-loop panic) becomes the run's error.
	stop(err error)
}

// runWorkers is the engine's one worker loop: worker k of len(targets)
// walks feed on targets[k], runs every scenario st admits and deposits
// the record. It returns how many records st reported written.
func runWorkers(ctx context.Context, targets []*Target, fl *faultload, feed shardFeed, st stage) int {
	counts := make([]int, len(targets))
	var wg sync.WaitGroup
	wg.Add(len(targets))
	for k, t := range targets {
		go func() {
			defer wg.Done()
			n := 0
			// Worker-loop panic boundary: runOneSafe contains experiment
			// panics, so a panic here comes from the feed (a generator
			// bug) or the sink. The run stops, so no other
			// worker waits on a sequence this one will never deposit.
			defer func() {
				if v := recover(); v != nil {
					st.stop(fmt.Errorf("core: worker panic: %v\n%s", v, debug.Stack()))
				}
				counts[k] = n
			}()
			scr := getScratch()
			defer putScratch(scr)
			stopSeq, gerr := feed(k, len(targets), func(seq int, sc scenario.Scenario) bool {
				if ctx.Err() != nil {
					st.stop(nil)
					return false
				}
				if run, cont := st.admit(seq); !run {
					return cont
				}
				rec, err := runOneSafe(t, sc, fl, scr)
				wrote, cont := st.deposit(k, seq, rec, err)
				if wrote {
					n++
				}
				return cont
			})
			if gerr != nil {
				st.genErr(stopSeq, gerr)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// runErrs keeps a run's failures; the stage that embeds it guards it.
type runErrs struct {
	firstErr, genErr       error
	firstErrSeq, genErrSeq int
}

// noteErr records the earliest-sequence campaign error.
func (e *runErrs) noteErr(seq int, err error) {
	if e.firstErr == nil || seq < e.firstErrSeq {
		e.firstErr, e.firstErrSeq = err, seq
	}
}

// noteGenErr records the earliest generation error.
func (e *runErrs) noteGenErr(seq int, err error) {
	if e.genErr == nil || seq < e.genErrSeq {
		e.genErr, e.genErrSeq = err, seq
	}
}

// result is the run's error: a campaign error first, then a generation
// error, then the caller's cancellation.
func (e *runErrs) result(ctx context.Context) error {
	if e.firstErr != nil {
		return e.firstErr
	}
	if e.genErr != nil {
		return e.genErr
	}
	return ctx.Err()
}

// shardRing is the ordered stage: a fixed window of slots indexed by
// sequence modulo the window size. Workers are admitted to a sequence
// while the flush front is within a window of it, deposit the record
// after, and the depositor that fills the gap at the front drains every
// ready slot to the sink in exact sequence order — there is no separate
// reassembly goroutine to context-switch through.
type shardRing struct {
	mu    sync.Mutex
	space sync.Cond

	slots  []profile.Record
	filled []bool
	window int
	next   int // next sequence to flush

	// stopSeq fences the stream after a failure: scenarios at or past it
	// must not start, so the flush front can reach it gap-free. A
	// generation error fences at the failure sequence; an infrastructure
	// error fences just past the failing scenario (its record still
	// reaches the profile). stopped aborts outright (sink error, caller
	// cancellation, worker panic): no new scenario starts, in-flight ones
	// still deposit.
	stopSeq   int
	stopped   bool
	stopFlush bool
	// flushing marks one worker as the active drainer: it writes the sink
	// with the mutex RELEASED, so the other workers keep injecting while
	// records flush. batch is its scratch, and only it writes flushed.
	flushing bool
	batch    []profile.Record
	flushed  int
	runErrs

	ctx       context.Context
	sink      profile.Sink
	keepGoing bool
}

func newShardRing(ctx context.Context, cfg runConfig, sink profile.Sink, window int) *shardRing {
	r := &shardRing{
		slots:     make([]profile.Record, window),
		filled:    make([]bool, window),
		batch:     make([]profile.Record, 0, maxFlushBatch),
		window:    window,
		stopSeq:   math.MaxInt,
		ctx:       ctx,
		sink:      sink,
		keepGoing: cfg.keepGoing,
	}
	r.space.L = &r.mu
	return r
}

// admit blocks until sequence seq may run (the flush front is within a
// window) and reports whether it still should.
func (r *shardRing) admit(seq int) (bool, bool) {
	r.mu.Lock()
	for !r.stopped && seq < r.stopSeq && seq >= r.next+r.window {
		r.space.Wait()
	}
	ok := !r.stopped && seq < r.stopSeq
	r.mu.Unlock()
	return ok, ok
}

// deposit parks a completed experiment and, if the ring's front is ready
// and nobody else is draining, becomes the drainer. The ring counts its
// own flushes, so it reports no record as written.
func (r *shardRing) deposit(_, seq int, rec profile.Record, err error) (bool, bool) {
	r.mu.Lock()
	if err != nil && !r.keepGoing {
		// Abort: fence the stream at the failing scenario — everything
		// before it still runs and flushes, nothing after it starts — so
		// the profile is the exact contiguous prefix through the failing
		// scenario's own record, matching a one-worker run, and the
		// earliest failing scenario wins the returned error. (A hard stop
		// would strand lower sequences that no worker had started yet and
		// silently drop every completed record behind the gap.)
		r.noteErr(seq, fmt.Errorf("core: scenario %s: %w", rec.ScenarioID, err))
		if seq+1 < r.stopSeq {
			r.stopSeq = seq + 1
		}
		r.space.Broadcast()
	}
	i := seq % r.window
	r.slots[i] = rec
	r.filled[i] = true
	if !r.flushing {
		r.flushing = true
		r.drainLocked()
		r.flushing = false
	}
	cont := !r.stopped
	r.mu.Unlock()
	return false, cont
}

// maxFlushBatch bounds how many records the drainer takes out of the
// ring per I/O burst, so window space reopens to the other workers in
// steady increments.
const maxFlushBatch = 64

// drainLocked flushes ready slots to the sink in exact sequence order.
// Called with r.mu held and r.flushing set; it RELEASES the mutex around
// the sink writes — the workers keep being admitted, injecting and
// depositing while I/O runs — and reacquires it to collect the next
// batch. Order is safe because the flushing flag admits exactly one
// drainer at a time. Nothing at or past the fence flushes: a record
// admitted before an abort lowered the fence is dropped, so the profile
// ends exactly at the failure. A panic in the sink leaves the mutex
// released and flushing set; the worker loop then stops the ring.
func (r *shardRing) drainLocked() {
	for r.next < r.stopSeq && r.filled[r.next%r.window] {
		start := r.next
		batch := r.batch[:0]
		for r.next < r.stopSeq && r.filled[r.next%r.window] && len(batch) < maxFlushBatch {
			j := r.next % r.window
			batch = append(batch, r.slots[j])
			r.filled[j] = false
			r.slots[j] = profile.Record{}
			r.next++
		}
		r.batch = batch[:0]
		// Window space opened: wake workers blocked in admit before the
		// I/O, not after.
		r.space.Broadcast()
		if r.stopFlush {
			// Post-cancellation (or post-sink-error) drain: slots are
			// discarded so the ring keeps emptying and workers can exit.
			continue
		}
		r.mu.Unlock()
		var werr error
		werrSeq := -1
		cancelled := false
		for bi, rec := range batch {
			if e := r.sink.Write(rec); e != nil {
				werr, werrSeq = e, start+bi
				break
			}
			r.flushed++
			// A caller-side cancellation stops the flush front at the
			// cancellation point — the contract is a profile cut short
			// there, not whatever happened to finish. Internal aborts
			// deliberately keep flushing to the sequence gap instead.
			if r.ctx.Err() != nil {
				cancelled = true
				break
			}
		}
		r.mu.Lock()
		if werr != nil {
			r.noteErr(werrSeq, werr)
			r.stopFlush = true
			r.stopped = true
			r.space.Broadcast()
		}
		if cancelled {
			r.stopFlush = true
		}
	}
}

// stop aborts the run (caller cancellation, worker panic).
func (r *shardRing) stop(err error) {
	r.mu.Lock()
	if err != nil {
		r.noteErr(math.MaxInt, err)
	}
	r.stopped = true
	r.space.Broadcast()
	r.mu.Unlock()
}

// genErr records a feed's generation failure and lowers the no-start
// fence to the earliest failure sequence.
func (r *shardRing) genErr(seq int, err error) {
	r.mu.Lock()
	r.noteGenErr(seq, err)
	if seq < r.stopSeq {
		r.stopSeq = seq
	}
	r.space.Broadcast()
	r.mu.Unlock()
}

// bypass is the order-insensitive stage: each worker writes its records
// to its own sub-sink as they complete. Per-record work touches only
// atomic stop checks; the mutex guards the rare error bookkeeping. The
// record count under a mid-stream failure may include scenarios past the
// failure point that other workers had already finished — an
// order-insensitive sink cannot tell, and the returned error still names
// the earliest failure.
type bypass struct {
	subs      []profile.Sink
	keepGoing bool
	stopped   atomic.Bool
	stopSeq   atomic.Int64 // written under mu
	mu        sync.Mutex
	runErrs
}

func newBypass(ss profile.ShardableSink, workers int, keepGoing bool) *bypass {
	b := &bypass{subs: make([]profile.Sink, workers), keepGoing: keepGoing}
	for k := range b.subs {
		b.subs[k] = ss.ShardSink(k, workers)
	}
	b.stopSeq.Store(math.MaxInt64)
	return b
}

func (b *bypass) admit(seq int) (bool, bool) {
	ok := !b.stopped.Load() && int64(seq) < b.stopSeq.Load()
	return ok, ok
}

func (b *bypass) deposit(k, seq int, rec profile.Record, err error) (bool, bool) {
	if werr := b.subs[k].Write(rec); werr != nil {
		// Nothing sensible can be written anymore: abort outright.
		b.fail(seq, werr, seq)
		b.stopped.Store(true)
		return false, false
	}
	if err != nil && !b.keepGoing {
		// Fence just past the failure, mirroring the ordered ring:
		// scenarios before it still run, nothing after it starts.
		b.fail(seq, fmt.Errorf("core: scenario %s: %w", rec.ScenarioID, err), seq+1)
		return true, false
	}
	return true, true
}

// fail records a campaign error at seq and lowers the fence to stopSeq.
func (b *bypass) fail(seq int, err error, stopSeq int) {
	b.mu.Lock()
	b.noteErr(seq, err)
	if int64(stopSeq) < b.stopSeq.Load() {
		b.stopSeq.Store(int64(stopSeq))
	}
	b.mu.Unlock()
}

func (b *bypass) genErr(seq int, err error) {
	b.mu.Lock()
	b.noteGenErr(seq, err)
	if int64(seq) < b.stopSeq.Load() {
		b.stopSeq.Store(int64(seq))
	}
	b.mu.Unlock()
}

func (b *bypass) stop(err error) {
	if err != nil {
		b.fail(math.MaxInt, err, math.MaxInt)
	}
	b.stopped.Store(true)
}

// workerTargets builds one target per worker, up front, so a failing
// factory aborts before any experiment starts; the targets already built
// are released, so no warm SUT or loopback host is left behind. Without a factory the one
// worker runs on primary (see WithTargetFactory). Each target is the
// engine's private copy, carrying the worker's SUT adapter and, with
// deadlines armed, its watchdog.
func workerTargets(cfg runConfig, primary *Target, workers int) ([]*Target, error) {
	if cfg.factory == nil && workers > 1 {
		return nil, errParallelNeedsFactory
	}
	targets := make([]*Target, 0, workers)
	for w := range workers {
		t := primary
		if cfg.factory != nil {
			var err error
			if t, err = cfg.factory(); err != nil {
				releaseTargets(targets)
				return nil, fmt.Errorf("core: building worker %d target: %w", w, err)
			}
		}
		tt := *t
		tt.inst = adapter(t.System)
		if cfg.deadlines.Enabled() {
			tt.wd = newWatchdog(tt.inst, cfg.deadlines)
		}
		targets = append(targets, &tt)
	}
	return targets, nil
}

// releaseTargets releases every worker's instance (shutting a warm SUT
// down and freeing its loopback host) once a run's workers have exited.
func releaseTargets(targets []*Target) {
	for _, t := range targets {
		if t.wd != nil {
			_ = t.wd.release()
		} else {
			_ = t.inst.Release()
		}
	}
}

// runSharded runs the faultload over cfg.parallelism workers, each
// pulling from feed. Records reach the sink in exact sequence order
// through the reassembly ring — unless the sink is order-insensitive
// (profile.ShardableSink), in which case every worker folds straight
// into its own sub-sink and the workers synchronize only on errors.
func runSharded(ctx context.Context, cfg runConfig, primary *Target, fl *faultload, feed shardFeed, sink profile.Sink) (int, error) {
	targets, err := workerTargets(cfg, primary, cfg.parallelism)
	if err != nil {
		return 0, err
	}
	defer releaseTargets(targets)
	if ss, ok := sink.(profile.ShardableSink); ok && profile.CanShardSink(sink) {
		b := newBypass(ss, len(targets), cfg.keepGoing)
		n := runWorkers(ctx, targets, fl, feed, b)
		return n, b.result(ctx)
	}
	ring := newShardRing(ctx, cfg, sink, streamWindow(len(targets)))
	runWorkers(ctx, targets, fl, feed, ring)
	return ring.flushed, ring.result(ctx)
}
