package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"conferr"
	"conferr/internal/dist"
)

// env is what one measurement needs besides the workload itself.
type env struct {
	seed  int64
	scale float64 // 1 for the benchmark; the smoke test shrinks every cell
	tr    *tracer // nil for the untraced run
	dir   string  // scratch directory for outputs, removed by the caller
}

// n scales a full-size record count, never below one.
func (e *env) n(full int) int {
	n := int(float64(full)*e.scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// basePort is the primary port of cell 0 for a seed; cell i gets
// basePort+i, as `conferr matrix -base-port` assigns them, so a run
// reproduces the CLI byte for byte. The faultload typos the port digits
// and a SUT on kernel sockets binds whatever port the typo leaves, so the
// ports lie in 11000-11999: there a one-key typo (a neighbouring digit, a
// swap, a dropped digit; an added digit overflows) gives a port from
// 10000 to 21999 or from 1000 to 1999. That keeps clear of Linux's
// ephemeral ports (32768-60999), where a client socket of this process,
// live or in TIME_WAIT, may hold the port, and of 2000-9999, where local
// services listen. An occupied port makes the engine retry the bind for
// 200 ms and turns the outcome into an accident of the machine; a port
// two workers want at once is only waited out. Successive seeds step 43
// ports apart.
func basePort(seed int64) int {
	const n = 1000 - 38 + 1 // room for 38 cells below 12000, every system x plugin
	return 11000 + int((seed%n+n)%n*43%n)
}

type outKind int

const (
	outCprof        outKind = iota // one .cprof file shared by every cell
	outJSONL                       // one JSONL file shared by every cell
	outJSONLPerCell                // one JSONL file per cell
)

// cellSpec is the campaign matrix one iteration runs, in `conferr matrix`
// terms: every cell streams through RunMatrix with durations stripped
// (-no-duration), so outputs are comparable byte for byte.
type cellSpec struct {
	systems   []string
	plugins   []string
	rounds    int
	limit     int // per cell, at full scale
	lifecycle conferr.Lifecycle
	memnet    bool
	out       outKind
}

// entries resolves the cells with the ports `conferr matrix -base-port`
// would give them.
func (s cellSpec) entries(seed int64) ([]conferr.MatrixEntry, error) {
	entries, _, err := conferr.MatrixEntries(s.systems, s.plugins, conferr.GeneratorOptions{Seed: seed})
	for i := range entries {
		entries[i].Port = basePort(seed) + i
	}
	return entries, err
}

type workloadKind int

const (
	kindMatrix workloadKind = iota
	kindDist
	kindFold
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	kind workloadKind
	cell cellSpec
	// refK is how many records per cell (at full scale) the reference
	// run re-derives on an independent path and compares.
	refK int
}

// workloads are few so that each run can be long: the host's speed
// drifts over seconds to minutes, and only a median over many
// iterations per run holds the run-to-run spread inside the bounds
// within the time all runs may take.
var workloads = []*workload{
	{
		name: "nginx-reload",
		why:  "nginx/typo over 107 rounds cut at 50k, warm reload over memnet, cprof out: balanced layers, on the sharded executor that writes straight to a shardable sink",
		cell: cellSpec{systems: []string{"nginx"}, plugins: []string{"typo"}, rounds: 107, limit: 50_000, lifecycle: conferr.LifecycleReload, memnet: true, out: outCprof},
		refK: 2000,
	},
	{
		name: "nginx-cold-tcp",
		why:  "the same faultload cut at 10k, cold starts over kernel TCP, JSONL out: SUT start/stop and sockets dominate; runs the reassembly ring and the JSONL encoder",
		cell: cellSpec{systems: []string{"nginx"}, plugins: []string{"typo"}, rounds: 107, limit: 10_000, lifecycle: conferr.LifecycleCold, out: outJSONL},
		refK: 2000,
	},
	{
		name: "dist-loopback",
		why:  "a coordinator and two in-process dist workers on loopback, 4 shards, merged JSONL: the only workload on RunShard, the wire protocol and the merger",
		kind: kindDist,
		cell: cellSpec{systems: []string{"nginx"}, plugins: []string{"typo"}, rounds: 107, limit: 20_000, lifecycle: conferr.LifecycleReload, memnet: true},
		refK: 2000,
	},
	{
		name: "profile-fold",
		why:  "the read side of profiles, no SUT: a pregenerated validate profile converted cprof to JSONL and back, each folded into a report",
		kind: kindFold,
		cell: cellSpec{systems: []string{"nginx"}, plugins: []string{"typo"}, rounds: 107, limit: 25_000, lifecycle: conferr.LifecycleValidate, memnet: true, out: outCprof},
		refK: 2000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, names)
}

// workers is the closed-loop load: two worker slots, fixed so that runs
// on machines with different core counts stay comparable.
const workers = 2

// run executes one iteration: construction, every record, the output
// closed, then (outside the measured window) the canonical digests.
func (w *workload) run(ctx context.Context, e *env) (*iteration, error) {
	entries, err := w.cell.entries(e.seed)
	if err != nil {
		return nil, err
	}
	k := e.n(w.refK)
	switch w.kind {
	case kindDist:
		return runDist(ctx, e, w.cell, e.n(w.cell.limit), k)
	case kindFold:
		return runFold(ctx, e, w.cell, entries, k)
	}
	it, outs, err := runCells(ctx, e, w.cell, entries, e.n(w.cell.limit), workers)
	if err != nil {
		return nil, err
	}
	defer outs.remove()
	if it.outBytes, err = outs.bytes(); err != nil {
		return nil, err
	}
	it.cells, err = outs.canon(entries, k)
	return it, err
}

// reference re-runs the first refK records of every cell on a different
// executor — one worker where the workload uses two — with reload
// replaced by cold starts, untraced. Its digests must equal the measured
// outputs' prefix digests.
func (w *workload) reference(ctx context.Context, e *env) (map[string]cellOut, error) {
	spec := w.cell
	if spec.lifecycle == conferr.LifecycleReload {
		spec.lifecycle = conferr.LifecycleCold
	}
	spec.out = outJSONLPerCell
	re := *e
	re.tr = nil
	k := e.n(w.refK)
	entries, err := spec.entries(e.seed)
	if err != nil {
		return nil, err
	}
	_, outs, err := runCells(ctx, &re, spec, entries, k, 1)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer outs.remove()
	cells, err := outs.canon(entries, k)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return cells, nil
}

// runCells runs entries as one suite through conferr.RunMatrix (or its
// traced mirror) and leaves the closed outputs for the caller.
func runCells(ctx context.Context, e *env, spec cellSpec, entries []conferr.MatrixEntry, limit, workers int) (*iteration, *outputs, error) {
	it := newIteration()
	counters := &conferr.LifecycleCounters{}
	mo := conferr.MatrixOptions{
		Workers: workers, Rounds: spec.rounds, Limit: limit,
		Lifecycle: spec.lifecycle, InMemory: spec.memnet, PoolCounters: counters,
	}
	outs, err := openOutputs(e.dir, spec.out, entries)
	if err != nil {
		return nil, nil, err
	}
	var sinkErr error
	mo.SinkFor = func(m conferr.MatrixEntry) conferr.Sink {
		s, err := wrapSink(conferr.StripDurations(outs.sinks[cellKey(m)]), e.tr, it.first)
		if err != nil {
			sinkErr = err
			return conferr.DiscardSink
		}
		return s
	}
	var res *conferr.SuiteResult
	if e.tr == nil {
		res, err = conferr.RunMatrix(ctx, entries, mo)
	} else {
		res, err = e.tr.runMatrix(ctx, entries, mo)
	}
	if cerr := outs.close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = sinkErr
	}
	if err != nil {
		outs.remove()
		return nil, nil, err
	}
	it.finish()
	for _, cr := range res.Results {
		it.records += cr.Records
	}
	it.written = it.records
	it.slotSec = float64(workers) * it.end.Sub(it.start).Seconds()
	it.lifecycle = counters.Snapshot()
	return it, outs, nil
}

// runDist runs the nginx cell across a coordinator and two dist workers
// serving on loopback in this process.
func runDist(ctx context.Context, e *env, spec cellSpec, limit, k int) (*iteration, error) {
	it := newIteration()
	counters := &conferr.LifecycleCounters{}
	runner := conferr.NewDistRunner()
	if e.tr != nil {
		runner = tracedRunner{t: e.tr, counters: counters}
	}
	srvCtx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	servers := make([]*dist.Server, workers)
	defer func() {
		stop()
		for _, s := range servers {
			if s != nil {
				_ = s.Close()
			}
		}
		wg.Wait()
	}()
	var endpoints []string
	for i := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &dist.Server{Runner: runner}
		if e.tr != nil {
			srv.WrapConn = func(c net.Conn) net.Conn { return countingConn{c, &e.tr.wireBytes} }
		}
		servers[i] = srv
		endpoints = append(endpoints, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Serve(srvCtx, ln)
		}()
	}
	path := filepath.Join(e.dir, "merged.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	bw := bufio.NewWriterSize(f, 1<<20)
	const shards = 4
	coord := &dist.Coordinator{
		Workers: endpoints,
		Shards:  shards,
		Spec: dist.CampaignSpec{
			System: spec.systems[0], Plugin: spec.plugins[0], Seed: e.seed,
			Rounds: spec.rounds, Limit: limit, Port: basePort(e.seed),
			Lifecycle: spec.lifecycle.String(), Memnet: spec.memnet, NoDuration: true,
		},
		Out: &probeWriter{w: bw, t: e.tr, first: it.first},
	}
	res, err := coord.Run(ctx)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	it.finish()
	it.records, it.written = res.Records, res.Records
	it.slotSec = float64(workers) * it.end.Sub(it.start).Seconds()
	it.lifecycle = counters.Snapshot()
	it.dist = distStats{shards: shards, retries: res.Retries, duplicates: res.Duplicates}
	if it.outBytes, err = fileSize(path); err != nil {
		return nil, err
	}
	key := spec.systems[0] + "/" + spec.plugins[0]
	c := newCanon(k, []string{key})
	if err := c.file(path); err != nil {
		return nil, err
	}
	it.cells = c.result()
	return it, nil
}

// runFold pregenerates a validate profile as cprof — the set-up — then
// times the read side: cprof to JSONL, fold the JSONL, JSONL back to
// cprof, fold the cprof.
func runFold(ctx context.Context, e *env, spec cellSpec, entries []conferr.MatrixEntry, k int) (*iteration, error) {
	pre, outs, err := runCells(ctx, e, spec, entries, e.n(spec.limit), workers)
	if err != nil {
		return nil, err
	}
	defer outs.remove()
	src := outs.paths[0]
	jsonl := filepath.Join(e.dir, "fold.jsonl")
	back := filepath.Join(e.dir, "fold.cprof")
	defer os.Remove(jsonl)
	defer os.Remove(back)

	it := newIteration()
	it.start = pre.start
	it.first.mark()
	opsStart := time.Now()
	op := func(l layer, f func() error) error {
		start := time.Now()
		err := f()
		if e.tr != nil {
			e.tr.end(l, 0, start, nil)
		}
		return err
	}
	key := func(r conferr.Record) string { return conferr.TypoDirectiveKey(r.ScenarioID) }
	fromJSONL, fromCprof := conferr.NewStreamStats(key), conferr.NewStreamStats(key)
	err = op(layerToJSONL, func() error {
		f, err := os.Create(jsonl)
		if err != nil {
			return err
		}
		if err := conferr.CprofToJSONL(src, bufio.NewWriterSize(f, 1<<20)); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err == nil {
		err = op(layerFoldJSONL, func() error { return conferr.ScanProfilePath(jsonl, fromJSONL.Add) })
	}
	if err == nil {
		err = op(layerToCprof, func() error {
			in, err := os.Open(jsonl)
			if err != nil {
				return err
			}
			defer in.Close()
			cf, err := conferr.CreateCprof(back)
			if err != nil {
				return err
			}
			err = conferr.JSONLToCprof(in, cf.W)
			if cerr := cf.Close(err == nil); err == nil {
				err = cerr
			}
			return err
		})
	}
	if err == nil {
		err = op(layerFoldCprof, func() error { return conferr.ScanProfilePath(back, fromCprof.Add) })
	}
	if err != nil {
		return nil, err
	}
	it.finish()

	n := pre.records
	it.records, it.written = 6*n, 2*n
	it.slotSec = pre.slotSec + it.end.Sub(opsStart).Seconds()
	it.lifecycle = pre.lifecycle
	for _, p := range []string{jsonl, back} {
		size, err := fileSize(p)
		if err != nil {
			return nil, err
		}
		it.outBytes += size
	}
	if a, b := fromJSONL.FormatReport(), fromCprof.FormatReport(); a != b {
		return nil, fmt.Errorf("folds of the JSONL and cprof conversions differ:\n%s\nvs\n%s", a, b)
	}
	if it.cells, err = outs.canon(entries, k); err != nil {
		return nil, err
	}
	// Both conversions must carry exactly the pregenerated records.
	for _, p := range []string{jsonl, back} {
		c := newCanon(k, keysOf(entries))
		if err := c.file(p); err != nil {
			return nil, err
		}
		if err := sameCells(it.cells, c.result()); err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(p), err)
		}
	}
	return it, nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func cellKey(m conferr.MatrixEntry) string { return m.System + "/" + m.Plugin }

func keysOf(entries []conferr.MatrixEntry) []string {
	keys := make([]string, len(entries))
	for i, m := range entries {
		keys[i] = cellKey(m)
	}
	return keys
}

// outputs are one iteration's profile files and the sinks writing them.
type outputs struct {
	kind   outKind
	paths  []string
	sinks  map[string]conferr.Sink
	cf     *conferr.CprofFile
	files  []*os.File
	bufs   []*bufio.Writer
	closed bool
}

func openOutputs(dir string, kind outKind, entries []conferr.MatrixEntry) (*outputs, error) {
	o := &outputs{kind: kind, sinks: map[string]conferr.Sink{}}
	create := func(name string) (*bufio.Writer, error) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		o.paths = append(o.paths, path)
		o.files = append(o.files, f)
		bw := bufio.NewWriterSize(f, 256<<10)
		o.bufs = append(o.bufs, bw)
		return bw, nil
	}
	switch kind {
	case outCprof:
		path := filepath.Join(dir, "out.cprof")
		cf, err := conferr.CreateCprof(path)
		if err != nil {
			return nil, err
		}
		o.cf, o.paths = cf, []string{path}
		for _, m := range entries {
			o.sinks[cellKey(m)] = cf.W.Sink(m.System, m.Plugin)
		}
	case outJSONL:
		bw, err := create("out.jsonl")
		if err != nil {
			return nil, err
		}
		lw := conferr.NewLockedWriter(bw)
		for _, m := range entries {
			o.sinks[cellKey(m)] = conferr.NewJSONLSink(lw, m.System, m.Plugin)
		}
	case outJSONLPerCell:
		for i, m := range entries {
			bw, err := create("cell-" + strconv.Itoa(i) + ".jsonl")
			if err != nil {
				o.close()
				o.remove()
				return nil, err
			}
			o.sinks[cellKey(m)] = conferr.NewJSONLSink(bw, m.System, m.Plugin)
		}
	}
	return o, nil
}

// close flushes and closes every output; the cprof file gets its index.
func (o *outputs) close() error {
	if o.closed {
		return nil
	}
	o.closed = true
	var first error
	if o.cf != nil {
		first = o.cf.Close(true)
	}
	for i, f := range o.files {
		if err := o.bufs[i].Flush(); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (o *outputs) remove() {
	for _, p := range o.paths {
		_ = os.Remove(p)
	}
}

func (o *outputs) bytes() (int64, error) {
	var n int64
	for _, p := range o.paths {
		size, err := fileSize(p)
		if err != nil {
			return 0, err
		}
		n += size
	}
	return n, nil
}

// canon digests every output in canonical order.
func (o *outputs) canon(entries []conferr.MatrixEntry, k int) (map[string]cellOut, error) {
	c := newCanon(k, keysOf(entries))
	for _, p := range o.paths {
		if err := c.file(p); err != nil {
			return nil, err
		}
	}
	return c.result(), nil
}
