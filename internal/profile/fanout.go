package profile

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Fan is the ordered fan-out stage behind every profile read. The
// caller's goroutine cuts the input into independent units (a cprof
// frame, a run of whole JSONL lines) with produce; up to GOMAXPROCS
// worker goroutines decode them into batches of entries; Next returns
// the batches in the order the units were cut. At most 2×GOMAXPROCS
// units are cut and not yet returned, and every unit's buffers and
// batch are reused within one Fan. Close stops the workers and waits
// for them, so no goroutine outlives the scan that opened it.
type Fan[U any] struct {
	produce func(*U) (bool, error)
	decode  func(*U, []JSONLEntry) ([]JSONLEntry, error)
	work    chan *Batch[U]
	queue   []*Batch[U] // cut and sent to the workers, in cut order
	free    []*Batch[U]
	last    *Batch[U] // returned by the previous Next; recycled by the next
	workers int       // started so far
	limit   int       // the queue's bound
	err     error     // produce's error, returned once the queue drains
	done    bool      // produce has reported the end or an error
	stop    atomic.Bool
	wg      sync.WaitGroup
}

// Batch is one decoded unit: the entries decode produced and, when it
// failed, its error. Entries holds the records decoded before the error.
// A Batch is valid until the next call to Next; a caller that keeps its
// Entries swaps in another slice for the stage to reuse.
type Batch[U any] struct {
	unit    U
	Entries []JSONLEntry
	Err     error
	ready   chan struct{}
}

// NewFan starts a stage. produce fills the unit it is given (reusing
// its buffers) and reports false at the end of the input, or an error,
// which Next returns after every unit cut before it. decode appends the
// unit's entries to dst; it runs on a worker goroutine and must touch
// nothing but its unit and what is safe for concurrent use, such as an
// io.ReaderAt.
func NewFan[U any](produce func(*U) (bool, error), decode func(u *U, dst []JSONLEntry) ([]JSONLEntry, error)) *Fan[U] {
	// Two units a worker: one decoding, one cut and waiting, so no
	// worker idles while the caller folds. work holds at most the queue,
	// so Next never blocks sending to it.
	limit := 2 * runtime.GOMAXPROCS(0)
	return &Fan[U]{produce: produce, decode: decode, limit: limit, work: make(chan *Batch[U], limit)}
}

// Next returns the next unit's batch in cut order, or nil and produce's
// error (nil at the end of the input) once every unit is returned.
func (f *Fan[U]) Next() (*Batch[U], error) {
	if f.last != nil {
		f.free = append(f.free, f.last)
		f.last = nil
	}
	for !f.done && len(f.queue) < f.limit {
		var b *Batch[U]
		if n := len(f.free); n > 0 {
			b, f.free = f.free[n-1], f.free[:n-1]
		} else {
			b = &Batch[U]{ready: make(chan struct{}, 1)}
		}
		ok, err := f.produce(&b.unit)
		if !ok || err != nil {
			f.done, f.err = true, err
			f.free = append(f.free, b)
			break
		}
		if f.workers < f.limit/2 {
			f.workers++
			f.wg.Add(1)
			go f.worker()
		}
		f.queue = append(f.queue, b)
		f.work <- b // never blocks: the channel holds at most the queue
	}
	if len(f.queue) == 0 {
		return nil, f.err
	}
	b := f.queue[0]
	f.queue = f.queue[:copy(f.queue, f.queue[1:])]
	<-b.ready
	f.last = b
	return b, nil
}

func (f *Fan[U]) worker() {
	defer f.wg.Done()
	for b := range f.work {
		if !f.stop.Load() {
			b.Entries, b.Err = f.decode(&b.unit, b.Entries[:0])
		}
		b.ready <- struct{}{}
	}
}

// Close stops the workers, skipping every unit not yet decoded, and
// waits for them to exit.
func (f *Fan[U]) Close() {
	f.stop.Store(true)
	close(f.work)
	f.wg.Wait()
}

// Each hands b's entries to fn in order and then returns b's own error.
// A non-nil error from fn stops it and is returned verbatim.
func (b *Batch[U]) Each(fn func(JSONLEntry) error) error {
	for i := range b.Entries {
		if err := fn(b.Entries[i]); err != nil {
			return err
		}
	}
	return b.Err
}

// FanEach runs every batch of f through fn in cut order (see Each) and
// closes f.
func FanEach[U any](f *Fan[U], fn func(JSONLEntry) error) error {
	defer f.Close()
	for {
		b, err := f.Next()
		if b == nil {
			return err
		}
		if err := b.Each(fn); err != nil {
			return err
		}
	}
}
