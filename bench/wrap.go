package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"conferr"
	"conferr/internal/confnode"
	"conferr/internal/core"
	"conferr/internal/dist"
	"conferr/internal/formats"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/sutpool"
	"conferr/internal/suts"
	"conferr/internal/view"
)

// The wrappers in this file time calls into each module's public
// interface from outside the program. The engine picks its executor and
// lifecycle path by probing optional interfaces, so every wrapper exposes
// exactly the optional interfaces of the value it wraps (plus Unwrap on
// systems, which the engine's capability probes walk). A combination no
// wrapper covers is an error, never a silently different path.

// capSet is a set of optional interfaces, indexed by optionalIfaces.
type capSet uint32

var optionalIfaces = []struct {
	name string
	has  func(any) bool
}{
	{"suts.Addressable", func(v any) bool { _, ok := v.(suts.Addressable); return ok }},
	{"suts.Reloader", func(v any) bool { _, ok := v.(suts.Reloader); return ok }},
	{"suts.DirtyReloader", func(v any) bool { _, ok := v.(suts.DirtyReloader); return ok }},
	{"suts.Validator", func(v any) bool { _, ok := v.(suts.Validator); return ok }},
	{"suts.HealthChecker", func(v any) bool { _, ok := v.(suts.HealthChecker); return ok }},
	{"suts.DirtyStarter", func(v any) bool { _, ok := v.(suts.DirtyStarter); return ok }},
	{"suts.TransportSetter", func(v any) bool { _, ok := v.(suts.TransportSetter); return ok }},
	{"sutpool.Managed", func(v any) bool { _, ok := v.(sutpool.Managed); return ok }},
	{"SkipProbes", func(v any) bool { _, ok := v.(interface{ SkipProbes() bool }); return ok }},
	{"Release", func(v any) bool { _, ok := v.(interface{ Release() error }); return ok }},
	{"Unwrap", func(v any) bool { _, ok := v.(interface{ Unwrap() suts.System }); return ok }},
	{"core.StreamingGenerator", func(v any) bool { _, ok := v.(core.StreamingGenerator); return ok }},
	{"core.ShardedGenerator", func(v any) bool { _, ok := v.(core.ShardedGenerator); return ok }},
	{"Shardable", func(v any) bool { _, ok := v.(interface{ Shardable() bool }); return ok }},
	{"view.Incremental", func(v any) bool { _, ok := v.(view.Incremental); return ok }},
	{"view.IncrementalInto", func(v any) bool { _, ok := v.(view.IncrementalInto); return ok }},
	{"formats.BufferedFormat", func(v any) bool { _, ok := v.(formats.BufferedFormat); return ok }},
	{"profile.ShardableSink", func(v any) bool { _, ok := v.(profile.ShardableSink); return ok }},
	{"SinkShardable", func(v any) bool { _, ok := v.(interface{ SinkShardable() bool }); return ok }},
}

// capsOf returns the optional interfaces v implements.
func capsOf(v any) capSet {
	var c capSet
	for i, o := range optionalIfaces {
		if o.has(v) {
			c |= 1 << i
		}
	}
	return c
}

func capsNamed(names ...string) capSet {
	var c capSet
	for _, n := range names {
		found := false
		for i, o := range optionalIfaces {
			if o.name == n {
				c |= 1 << i
				found = true
			}
		}
		if !found {
			panic("bench: unknown optional interface " + n)
		}
	}
	return c
}

func (c capSet) String() string {
	var names []string
	for i, o := range optionalIfaces {
		if c&(1<<i) != 0 {
			names = append(names, o.name)
		}
	}
	if len(names) == 0 {
		return "{}"
	}
	return "{" + strings.Join(names, ", ") + "}"
}

var (
	capsUnwrap      = capsNamed("Unwrap")
	capsAddr        = capsNamed("suts.Addressable")
	capsWarm        = capsNamed("suts.Addressable", "suts.Reloader", "suts.DirtyReloader", "suts.Validator", "suts.HealthChecker", "suts.TransportSetter")
	capsStream      = capsNamed("core.StreamingGenerator")
	capsShard       = capsNamed("core.StreamingGenerator", "core.ShardedGenerator")
	capsInc         = capsNamed("view.Incremental")
	capsIncInto     = capsNamed("view.Incremental", "view.IncrementalInto")
	capsBuffered    = capsNamed("formats.BufferedFormat")
	capsShardSink   = capsNamed("profile.ShardableSink")
	capsFannedSink  = capsNamed("profile.ShardableSink", "SinkShardable")
	errNoTracedForm = errors.New("bench: no traced wrapper for")
)

// worker is the identity shared by one target's per-worker wrappers.
type worker struct {
	t    *tracer
	slot int    // -1 for the primary target (generation and baseline)
	g    uint64 // goroutine id, cached once a sampled experiment needs it
}

func (w *worker) end(l layer, start time.Time) {
	w.t.end(l, w.slot, start, w.t.sample.forWorker(&w.g, w.slot))
}

// tracedSystem times a SUT's lifecycle phases.
type tracedSystem struct {
	inner suts.System
	w     *worker
}

func (s *tracedSystem) Name() string              { return s.inner.Name() }
func (s *tracedSystem) DefaultConfig() suts.Files { return s.inner.DefaultConfig() }
func (s *tracedSystem) Unwrap() suts.System       { return s.inner }

func (s *tracedSystem) Start(files suts.Files) error {
	start := time.Now()
	err := s.inner.Start(files)
	s.phase(layerStart, start, err)
	return err
}

func (s *tracedSystem) Stop() error {
	start := time.Now()
	err := s.inner.Stop()
	s.phase(layerStop, start, nil)
	return err
}

func (s *tracedSystem) phase(l layer, start time.Time, err error) {
	s.w.end(l, start)
	if err != nil && suts.IsStartupError(err) {
		s.w.t.rejects.Add(1)
	}
}

// tracedAddrSystem is a traced cold-only network SUT (mysql, bind,
// djbdns).
type tracedAddrSystem struct{ *tracedSystem }

func (s tracedAddrSystem) Addr() string { return s.inner.(suts.Addressable).Addr() }

// tracedWarmSystem is a traced SUT with every lifecycle capability
// (nginx, apache, postgres, redisd).
type tracedWarmSystem struct {
	*tracedSystem
	warm warmSystem
}

type warmSystem interface {
	suts.Addressable
	suts.DirtyReloader
	suts.Validator
	suts.HealthChecker
	suts.TransportSetter
}

func (s tracedWarmSystem) Addr() string                   { return s.warm.Addr() }
func (s tracedWarmSystem) SetTransport(tr suts.Transport) { s.warm.SetTransport(tr) }

func (s tracedWarmSystem) Reload(files suts.Files) error {
	start := time.Now()
	err := s.warm.Reload(files)
	s.phase(layerReload, start, err)
	return err
}

func (s tracedWarmSystem) ReloadDirty(files suts.Files, dirty []string) error {
	start := time.Now()
	err := s.warm.ReloadDirty(files, dirty)
	s.phase(layerReload, start, err)
	return err
}

func (s tracedWarmSystem) Validate(files suts.Files) error {
	start := time.Now()
	err := s.warm.Validate(files)
	s.phase(layerValidate, start, err)
	return err
}

func (s tracedWarmSystem) Health() error {
	start := time.Now()
	err := s.warm.Health()
	s.phase(layerProbe, start, nil)
	return err
}

func (w *worker) system(sys suts.System) (suts.System, error) {
	base := &tracedSystem{inner: sys, w: w}
	switch c := capsOf(sys); c {
	case 0:
		return base, nil
	case capsAddr:
		return tracedAddrSystem{base}, nil
	case capsWarm:
		return tracedWarmSystem{tracedSystem: base, warm: sys.(warmSystem)}, nil
	default:
		return nil, fmt.Errorf("%w system %s with %s", errNoTracedForm, sys.Name(), c)
	}
}

func (w *worker) tests(tests []suts.Test) []suts.Test {
	out := make([]suts.Test, len(tests))
	for i, tc := range tests {
		run := tc.Run
		out[i] = suts.Test{Name: tc.Name, Run: func() error {
			start := time.Now()
			err := run()
			w.end(layerProbe, start)
			return err
		}}
	}
	return out
}

// tracedFormat times a codec's Parse and Serialize.
type tracedFormat struct {
	inner formats.Format
	w     *worker
}

func (f *tracedFormat) Name() string { return f.inner.Name() }

func (f *tracedFormat) Parse(file string, data []byte) (*confnode.Node, error) {
	start := time.Now()
	root, err := f.inner.Parse(file, data)
	f.w.end(layerParse, start)
	return root, err
}

func (f *tracedFormat) Serialize(root *confnode.Node) ([]byte, error) {
	start := time.Now()
	out, err := f.inner.Serialize(root)
	f.w.t.serializeBytes.Add(int64(len(out)))
	f.w.end(layerSerialize, start)
	return out, err
}

type tracedBufferedFormat struct {
	*tracedFormat
	buf formats.BufferedFormat
}

func (f tracedBufferedFormat) SerializeTo(buf *bytes.Buffer, root *confnode.Node) error {
	n := buf.Len()
	start := time.Now()
	err := f.buf.SerializeTo(buf, root)
	f.w.t.serializeBytes.Add(int64(buf.Len() - n))
	f.w.end(layerSerialize, start)
	return err
}

func (w *worker) format(f formats.Format) (formats.Format, error) {
	base := &tracedFormat{inner: f, w: w}
	switch c := capsOf(f); c {
	case 0:
		return base, nil
	case capsBuffered:
		return tracedBufferedFormat{base, f.(formats.BufferedFormat)}, nil
	default:
		return nil, fmt.Errorf("%w format %s with %s", errNoTracedForm, f.Name(), c)
	}
}

// targetFactory wraps every target a cell builds: the first call builds
// the primary (generation and baseline), later calls the worker targets.
// The SystemTarget's System stays unwrapped, because the facade reads the
// primary port and sets the transport through it.
func (t *tracer) targetFactory(f conferr.TargetFactory) conferr.TargetFactory {
	var built atomic.Int32
	return func(port int) (*conferr.SystemTarget, error) {
		st, err := f(port)
		if err != nil {
			return nil, err
		}
		w := &worker{t: t, slot: int(built.Add(1)) - 2}
		target := *st.Target
		if target.System, err = w.system(st.Target.System); err != nil {
			return nil, err
		}
		target.Formats = make(map[string]formats.Format, len(st.Target.Formats))
		for name, f := range st.Target.Formats {
			if target.Formats[name], err = w.format(f); err != nil {
				return nil, err
			}
		}
		target.Tests = w.tests(st.Target.Tests)
		return &conferr.SystemTarget{Target: &target, System: st.System}, nil
	}
}

// tracedView times the back-transform.
type tracedView struct {
	inner view.View
	t     *tracer
}

func (v *tracedView) Name() string { return v.inner.Name() }

func (v *tracedView) Forward(sys *confnode.Set) (*confnode.Set, error) { return v.inner.Forward(sys) }

func (v *tracedView) Backward(mutated, sys *confnode.Set) (*confnode.Set, error) {
	start := time.Now()
	out, err := v.inner.Backward(mutated, sys)
	v.end(mutated, start, err)
	return out, err
}

func (v *tracedView) end(mutated *confnode.Set, start time.Time, err error) {
	lane := int(reflect.ValueOf(mutated).Pointer() >> 6)
	v.t.end(layerBackward, lane, start, v.t.sample.bySetLookup(mutated))
	if errors.Is(err, view.ErrNotExpressible) {
		v.t.notExpressible.Add(1)
	}
}

type tracedIncView struct {
	*tracedView
	inc view.Incremental
}

func (v tracedIncView) IncrementalBackward(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	start := time.Now()
	out, err := v.inc.IncrementalBackward(dirty, mutated, sys)
	v.end(mutated, start, err)
	return out, err
}

type tracedIncIntoView struct {
	tracedIncView
	into view.IncrementalInto
}

func (v tracedIncIntoView) IncrementalBackwardInto(dst *confnode.Set, dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
	start := time.Now()
	out, err := v.into.IncrementalBackwardInto(dst, dirty, mutated, sys)
	v.end(mutated, start, err)
	return out, err
}

func (t *tracer) view(v view.View) (view.View, error) {
	base := &tracedView{inner: v, t: t}
	switch c := capsOf(v); c {
	case 0:
		return base, nil
	case capsInc:
		return tracedIncView{base, v.(view.Incremental)}, nil
	case capsIncInto:
		return tracedIncIntoView{tracedIncView{base, v.(view.Incremental)}, v.(view.IncrementalInto)}, nil
	default:
		return nil, fmt.Errorf("%w view %s with %s", errNoTracedForm, v.Name(), c)
	}
}

// tracedGen times scenario generation and wraps every scenario's Apply.
type tracedGen struct {
	inner core.Generator
	t     *tracer
	view  view.View
}

func (g *tracedGen) Name() string    { return g.inner.Name() }
func (g *tracedGen) View() view.View { return g.view }

func (g *tracedGen) Generate(set *confnode.Set) ([]scenario.Scenario, error) {
	lane := g.t.lane()
	start := time.Now()
	scens, err := g.inner.Generate(set)
	end := g.t.end(layerPull, lane, start, nil)
	for i := range scens {
		scens[i].Apply = g.t.apply(scens[i].Apply, scens[i].ID, lane, i, start, end)
	}
	return scens, err
}

type tracedStreamGen struct {
	*tracedGen
	stream core.StreamingGenerator
}

func (g tracedStreamGen) GenerateStream(set *confnode.Set) scenario.Source {
	return g.t.source(g.stream.GenerateStream(set))
}

type tracedShardGen struct {
	tracedStreamGen
	shard core.ShardedGenerator
}

func (g tracedShardGen) GenerateShard(set *confnode.Set, k, n int) scenario.Source {
	return g.t.source(g.shard.GenerateShard(set, k, n))
}

func (t *tracer) generator(g core.Generator) (core.Generator, error) {
	v, err := t.view(g.View())
	if err != nil {
		return nil, err
	}
	base := &tracedGen{inner: g, t: t, view: v}
	switch c := capsOf(g); c {
	case 0:
		return base, nil
	case capsStream:
		return tracedStreamGen{base, g.(core.StreamingGenerator)}, nil
	case capsShard:
		return tracedShardGen{tracedStreamGen{base, g.(core.StreamingGenerator)}, g.(core.ShardedGenerator)}, nil
	default:
		return nil, fmt.Errorf("%w generator %s with %s", errNoTracedForm, g.Name(), c)
	}
}

// source times each pull of a generator's stream: the time between the
// consumer handing control back and the next scenario arriving.
func (t *tracer) source(src scenario.Source) scenario.Source {
	lane := t.lane()
	return func(yield func(scenario.Scenario, error) bool) {
		ordinal := 0
		pullStart := time.Now()
		src(func(sc scenario.Scenario, err error) bool {
			pullEnd := t.end(layerPull, lane, pullStart, nil)
			if err == nil && sc.Apply != nil {
				sc.Apply = t.apply(sc.Apply, sc.ID, lane, ordinal, pullStart, pullEnd)
			}
			ordinal++
			ok := yield(sc, err)
			pullStart = time.Now()
			return ok
		})
	}
}

// apply times one scenario's mutation. Every sampleEvery-th scenario of a
// stream opens a sampled experiment when it is applied.
func (t *tracer) apply(inner func(*confnode.Set) error, id string, lane, ordinal int, pullStart, pullEnd time.Time) func(*confnode.Set) error {
	if ordinal%sampleEvery != 0 {
		return func(set *confnode.Set) error {
			t.sample.nextOnSet(set)
			start := time.Now()
			err := inner(set)
			t.end(layerApply, lane, start, nil)
			return err
		}
	}
	return func(set *confnode.Set) error {
		ctx := t.sample.begin(set, id, ordinal)
		t.sample.add(ctx, layerPull, pullStart, pullEnd)
		start := time.Now()
		err := inner(set)
		t.end(layerApply, lane, start, ctx)
		return err
	}
}

// firstRecord stamps the first record of an iteration reaching its
// output: the end of set-up and the start of the measured window.
type firstRecord struct {
	done atomic.Bool
	at   time.Time
	cpu  time.Duration
}

func (f *firstRecord) mark() {
	if !f.done.Load() && f.done.CompareAndSwap(false, true) {
		f.at = time.Now()
		f.cpu = cpuTime()
	}
}

// probeSink stamps the first record and, when traced, times every write
// and reads the record's duration before the wrapped sink strips it. The
// untraced run keeps only the stamp: one atomic load per record.
type probeSink struct {
	inner profile.Sink
	t     *tracer
	first *firstRecord
	lane  int
}

func (s *probeSink) Write(r profile.Record) error {
	s.first.mark()
	if s.t == nil {
		return s.inner.Write(r)
	}
	s.t.expDur.add(s.lane, r.Duration)
	start := time.Now()
	err := s.inner.Write(r)
	end := s.t.end(layerWrite, s.lane, start, nil)
	s.t.sample.record(r.ScenarioID, layerWrite, start, end)
	return err
}

type probeShardSink struct {
	*probeSink
	ss profile.ShardableSink
}

func (s probeShardSink) ShardSink(k, n int) profile.Sink {
	return &probeSink{inner: s.ss.ShardSink(k, n), t: s.t, first: s.first, lane: k}
}

type probeFannedSink struct {
	probeShardSink
	fan interface{ SinkShardable() bool }
}

func (s probeFannedSink) SinkShardable() bool { return s.fan.SinkShardable() }

func wrapSink(inner profile.Sink, t *tracer, first *firstRecord) (profile.Sink, error) {
	base := &probeSink{inner: inner, t: t, first: first}
	switch c := capsOf(inner); c {
	case 0:
		return base, nil
	case capsShardSink:
		return probeShardSink{base, inner.(profile.ShardableSink)}, nil
	case capsFannedSink:
		return probeFannedSink{probeShardSink{base, inner.(profile.ShardableSink)}, inner.(interface{ SinkShardable() bool })}, nil
	default:
		return nil, fmt.Errorf("%w sink with %s", errNoTracedForm, c)
	}
}

// probeWriter is the coordinator's output writer: it stamps the first
// merged record and, when traced, times every write as profile.write.
type probeWriter struct {
	w     io.Writer
	t     *tracer
	first *firstRecord
}

func (p *probeWriter) Write(b []byte) (int, error) {
	p.first.mark()
	if p.t == nil {
		return p.w.Write(b)
	}
	start := time.Now()
	n, err := p.w.Write(b)
	p.t.end(layerWrite, 0, start, nil)
	return n, err
}

// countingConn counts the bytes a dist worker sends to the coordinator.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// campaign builds one matrix cell exactly as conferr.RunMatrix does, with
// the target, generator and view wrapped. The benchmark never sets
// sampling, keep-going or deadlines, so those branches are left out.
func (t *tracer) campaign(e conferr.MatrixEntry, port int, mo conferr.MatrixOptions) (conferr.SuiteCampaign, error) {
	tf, err := conferr.LookupTarget(e.System)
	if err != nil {
		return conferr.SuiteCampaign{}, err
	}
	if mo.InMemory {
		tf = conferr.InMemoryTransport(tf)
	}
	gf, err := conferr.LookupGenerator(e.Plugin)
	if err != nil {
		return conferr.SuiteCampaign{}, err
	}
	o := e.Options
	o.System = e.System
	gen, err := gf(o)
	if err != nil {
		return conferr.SuiteCampaign{}, fmt.Errorf("bench: %s/%s: %w", e.System, e.Plugin, err)
	}
	if gen, err = t.generator(gen); err != nil {
		return conferr.SuiteCampaign{}, err
	}
	if mo.Rounds > 1 {
		gen = conferr.RepeatGenerator(gen, mo.Rounds)
	}
	if mo.Limit > 0 {
		gen = conferr.LimitGenerator(gen, mo.Limit)
	}
	sc, err := conferr.NewSuiteCampaignLifecycle(e.System+"/"+e.Plugin, t.targetFactory(tf), port, gen, mo.Lifecycle, mo.PoolCounters)
	if err != nil {
		return conferr.SuiteCampaign{}, err
	}
	if mo.SinkFor != nil {
		sc.Sink = mo.SinkFor(e)
	}
	return sc, nil
}

// runMatrix is conferr.RunMatrix over traced cells.
func (t *tracer) runMatrix(ctx context.Context, entries []conferr.MatrixEntry, mo conferr.MatrixOptions) (*conferr.SuiteResult, error) {
	campaigns := make([]conferr.SuiteCampaign, 0, len(entries))
	for i, e := range entries {
		port := e.Port
		if port == 0 && mo.BasePort > 0 {
			port = mo.BasePort + i
		}
		sc, err := t.campaign(e, port, mo)
		if err != nil {
			return nil, err
		}
		campaigns = append(campaigns, sc)
	}
	suite := &conferr.Suite{Campaigns: campaigns, Workers: mo.Workers}
	return suite.Run(ctx)
}

// tracedRunner is the dist worker's shard runner over traced cells: the
// body of the facade's registry-backed runner, with the campaign built by
// tracer.campaign and the emit callback timed.
type tracedRunner struct {
	t        *tracer
	counters *conferr.LifecycleCounters
}

func (r tracedRunner) RunShard(ctx context.Context, req dist.ShardRequest, emit func(seq int, line []byte) error) (dist.ShardResult, error) {
	shardStart := time.Now()
	defer r.t.end(layerShard, req.Shard, shardStart, nil)
	spec := req.Campaign
	mode, err := conferr.ParseLifecycle(spec.Lifecycle)
	if err != nil {
		return dist.ShardResult{}, err
	}
	e := conferr.MatrixEntry{System: spec.System, Plugin: spec.Plugin, Options: conferr.GeneratorOptions{Seed: spec.Seed}}
	sc, err := r.t.campaign(e, spec.Port, conferr.MatrixOptions{
		Rounds: spec.Rounds, Limit: spec.Limit, Lifecycle: mode, InMemory: spec.Memnet, PoolCounters: r.counters,
	})
	if err != nil {
		return dist.ShardResult{}, err
	}
	if sc.Cleanup != nil {
		defer sc.Cleanup()
	}
	var (
		sum profile.Summary
		buf []byte
	)
	total, err := sc.Campaign.RunShard(ctx, req.Shard, req.Shards, req.StartSeq, func(seq int, rec profile.Record) error {
		sum.Add(rec)
		r.t.expDur.add(req.Shard, rec.Duration)
		if spec.NoDuration {
			rec.Duration = 0
		}
		buf = profile.AppendJSONLRecord(buf[:0], spec.System, spec.Plugin, seq, rec)
		start := time.Now()
		err := emit(seq, buf[:len(buf)-1])
		end := r.t.end(layerEmit, req.Shard, start, nil)
		r.t.sample.record(rec.ScenarioID, layerEmit, start, end)
		return err
	}, sc.Options...)
	return dist.ShardResult{Records: total, Summary: sum}, err
}
