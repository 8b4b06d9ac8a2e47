package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conferr/internal/confnode"
)

// layer names one module boundary the traced run times from outside the
// program: every span is a call into a module's public interface.
type layer int

const (
	layerPull      layer = iota // scenario.Source pull inside a Generator
	layerApply                  // Scenario.Apply
	layerBackward               // view Backward / IncrementalBackward(Into)
	layerParse                  // formats Parse
	layerSerialize              // formats Serialize / SerializeTo
	layerStart                  // suts.System Start
	layerReload                 // suts.Reloader Reload / ReloadDirty
	layerValidate               // suts.Validator Validate
	layerStop                   // suts.System Stop
	layerProbe                  // suts.Test.Run and HealthChecker.Health
	layerWrite                  // profile.Sink Write; under dist, the coordinator's output writer
	layerEmit                   // dist.ShardRunner emit callback
	layerToJSONL                // CprofToJSONL
	layerFoldJSONL              // ScanProfilePath over JSONL
	layerToCprof                // JSONLToCprof
	layerFoldCprof              // ScanProfilePath over cprof
	layerShard                  // dist.ShardRunner.RunShard: holds other spans, not a leaf
	numLayers
)

// numLeafLayers counts the layers whose spans never nest inside each
// other; core.self_s subtracts exactly these.
const numLeafLayers = layerShard

var layerNames = [numLayers]string{
	"plugins.pull", "scenario.apply", "view.backward", "formats.parse",
	"formats.serialize", "suts.start", "suts.reload", "suts.validate",
	"suts.stop", "suts.probe", "profile.write", "dist.emit",
	"profile.to_jsonl", "profile.fold_jsonl", "profile.to_cprof",
	"profile.fold_cprof", "dist.shard",
}

// Histogram geometry: log-linear, 2^histSub linear sub-buckets per power
// of two, so any reported percentile is within 12.5% of the true value.
const (
	histSub     = 3
	histBuckets = (64 - histSub + 1) << histSub
)

// hist is a fixed-bucket log-linear histogram of nanosecond durations.
type hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
}

func bucketOf(v int64) int {
	if v < 1<<histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	return (e-histSub+1)<<histSub | int(v>>(e-histSub)&(1<<histSub-1))
}

// bucketHigh is the largest value bucket i holds.
func bucketHigh(i int) int64 {
	if i < 1<<histSub {
		return int64(i)
	}
	e := i>>histSub + histSub - 1
	sub := int64(i & (1<<histSub - 1))
	return ((1<<histSub|sub)+1)<<(e-histSub) - 1
}

// histLanes shards every layer's histogram so that concurrent workers do not
// bounce one cache line on each span.
const histLanes = 4

// layerStat is one layer's histogram, sharded by lane.
type layerStat [histLanes]hist

func (s *layerStat) add(lane int, d time.Duration) { s[lane&(histLanes-1)].add(int64(d)) }

func (s *layerStat) count() int64 {
	var n int64
	for i := range s {
		n += s[i].count.Load()
	}
	return n
}

func (s *layerStat) sum() time.Duration {
	var n int64
	for i := range s {
		n += s[i].sum.Load()
	}
	return time.Duration(n)
}

// quantile returns the q-th fraction of the samples in nanoseconds,
// interpolated linearly inside the bucket that holds it (so it does not
// snap to bucket bounds), 0 when there are none.
func (s *layerStat) quantile(q float64) float64 {
	total := s.count()
	if total == 0 {
		return 0
	}
	rank := max(q*float64(total), 1)
	var seen int64
	for b := 0; b < histBuckets; b++ {
		var n int64
		for i := range s {
			n += s[i].buckets[b].Load()
		}
		if n > 0 && float64(seen+n) >= rank {
			lo := float64(0)
			if b > 0 {
				lo = float64(bucketHigh(b-1) + 1)
			}
			return lo + (float64(bucketHigh(b))-lo)*(rank-float64(seen))/float64(n)
		}
		seen += n
	}
	return float64(bucketHigh(histBuckets - 1))
}

// sampleEvery selects one experiment in this many for full spans.
const sampleEvery = 1000

// tracer collects the traced run: per-layer histograms and counters, and
// the full spans of a sample of experiments.
type tracer struct {
	epoch  time.Time
	layers [numLayers]layerStat
	// expDur holds record durations, read before durations are stripped.
	expDur layerStat

	notExpressible atomic.Int64
	rejects        atomic.Int64
	serializeBytes atomic.Int64
	wireBytes      atomic.Int64
	nextLane       atomic.Int32

	sample sampler
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.sample.byGoid = map[uint64]*expCtx{}
	t.sample.bySet = map[*confnode.Set]*expCtx{}
	t.sample.byID = map[string]*expCtx{}
	return t
}

// end records one span of layer l that began at start, returning its
// end time. ctx, when non-nil, also keeps the full span.
func (t *tracer) end(l layer, lane int, start time.Time, ctx *expCtx) time.Time {
	now := time.Now()
	t.layers[l].add(lane, now.Sub(start))
	if ctx != nil {
		t.sample.add(ctx, l, start, now)
	}
	return now
}

func (t *tracer) lane() int { return int(t.nextLane.Add(1)) }

// leafBusy is the summed duration of every non-nesting layer.
func (t *tracer) leafBusy() time.Duration {
	var d time.Duration
	for l := layer(0); l < numLeafLayers; l++ {
		d += t.layers[l].sum()
	}
	return d
}

// spanRec is one sampled span as written to the spans file.
type spanRec struct {
	Layer    string `json:"layer"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Slot     int    `json:"slot"`
	Scenario string `json:"scenario"`
	Ordinal  int    `json:"ordinal"`
	Exp      int64  `json:"exp"`
}

// expCtx is one sampled experiment. Its spans are linked by the
// per-worker scratch set the scenario was applied to, by the goroutine
// that applied it, and by the scenario ID its record carries.
type expCtx struct {
	id       int64
	scenario string
	ordinal  int
	slot     int
	goid     uint64
	set      *confnode.Set
	spans    []spanRec
}

// sampler links the spans of sampled experiments. active counts sampled
// experiments whose record has not been written yet; while it is zero
// every lookup returns at once.
type sampler struct {
	active atomic.Int32
	mu     sync.Mutex
	nextID int64
	byGoid map[uint64]*expCtx
	bySet  map[*confnode.Set]*expCtx
	byID   map[string]*expCtx
	done   []spanRec
}

// begin registers a sampled experiment that is about to apply its
// scenario to set on the calling goroutine.
func (s *sampler) begin(set *confnode.Set, id string, ordinal int) *expCtx {
	g := goid()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachLocked(s.bySet[set])
	s.detachLocked(s.byGoid[g])
	if old := s.byID[id]; old != nil {
		s.finishLocked(old)
	}
	s.nextID++
	ctx := &expCtx{id: s.nextID, scenario: id, ordinal: ordinal, slot: -1, goid: g, set: set}
	s.byGoid[g] = ctx
	s.bySet[set] = ctx
	s.byID[id] = ctx
	s.active.Add(1)
	return ctx
}

// detachLocked ends the link from a scratch set and goroutine to ctx: the
// worker has moved on to its next experiment. The record may still be
// written later.
func (s *sampler) detachLocked(ctx *expCtx) {
	if ctx == nil {
		return
	}
	if s.bySet[ctx.set] == ctx {
		delete(s.bySet, ctx.set)
	}
	if s.byGoid[ctx.goid] == ctx {
		delete(s.byGoid, ctx.goid)
	}
}

func (s *sampler) finishLocked(ctx *expCtx) {
	s.detachLocked(ctx)
	delete(s.byID, ctx.scenario)
	// The slot becomes known at the first per-worker span; the pull,
	// apply and backward spans before it belong to the same worker.
	for i := range ctx.spans {
		ctx.spans[i].Slot = ctx.slot
	}
	s.done = append(s.done, ctx.spans...)
	s.active.Add(-1)
}

// nextOnSet is called when any scenario is applied to set: a sampled
// experiment still linked to that scratch is over.
func (s *sampler) nextOnSet(set *confnode.Set) {
	if s.active.Load() == 0 {
		return
	}
	s.mu.Lock()
	s.detachLocked(s.bySet[set])
	s.mu.Unlock()
}

func (s *sampler) bySetLookup(set *confnode.Set) *expCtx {
	if s.active.Load() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bySet[set]
}

// forWorker returns the sampled experiment running on the per-worker
// wrapper's goroutine, caching the goroutine id in *g.
func (s *sampler) forWorker(g *uint64, slot int) *expCtx {
	if s.active.Load() == 0 {
		return nil
	}
	if *g == 0 {
		*g = goid()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx := s.byGoid[*g]
	if ctx != nil && ctx.slot < 0 {
		ctx.slot = slot
	}
	return ctx
}

// record ends the sampled experiment whose record is being written.
func (s *sampler) record(id string, l layer, start, end time.Time) {
	if s.active.Load() == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx := s.byID[id]
	if ctx == nil {
		return
	}
	s.appendLocked(ctx, l, start, end)
	s.finishLocked(ctx)
}

func (s *sampler) add(ctx *expCtx, l layer, start, end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendLocked(ctx, l, start, end)
}

func (s *sampler) appendLocked(ctx *expCtx, l layer, start, end time.Time) {
	ctx.spans = append(ctx.spans, spanRec{
		Layer: layerNames[l], Start: start.UnixNano(), End: end.UnixNano(),
		Slot: ctx.slot, Scenario: ctx.scenario, Ordinal: ctx.ordinal, Exp: ctx.id,
	})
}

// writeSpans writes every sampled span, oldest experiment first, as JSON
// lines with times relative to the tracer's start.
func (t *tracer) writeSpans(path string) (int, error) {
	s := &t.sample
	s.mu.Lock()
	for _, ctx := range s.byID {
		s.finishLocked(ctx)
	}
	spans := s.done
	s.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Exp < spans[j].Exp })
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(f)
	base := t.epoch.UnixNano()
	for _, sp := range spans {
		sp.Start -= base
		sp.End -= base
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return 0, err
		}
	}
	return len(spans), f.Close()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). It costs about a microsecond, so callers
// only ask while a sampled experiment is in flight.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
