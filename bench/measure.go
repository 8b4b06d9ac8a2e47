package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"

	"conferr/internal/sutpool"
)

// iteration is one complete unit of a workload's work: construction,
// every record, and the output closed.
type iteration struct {
	start time.Time    // construction begins
	first *firstRecord // first record reached the output
	end   time.Time    // last record flushed and output closed
	cpu   time.Duration

	records  int     // records completed: the rec_per_s numerator
	written  int     // records written to outputs
	outBytes int64   // bytes of those outputs
	slotSec  float64 // worker slots × wall, summed over the iteration's phases
	peakRSS  int64   // VmHWM at the end, reset before the iteration began
	rt       runtimeDelta

	cells     map[string]cellOut // canonical digest per campaign cell
	lifecycle sutpool.Snapshot
	dist      distStats
	rtFrom    rtPoint
}

func newIteration() *iteration {
	return &iteration{start: time.Now(), first: &firstRecord{}, rtFrom: readRuntime()}
}

type distStats struct {
	shards, retries, duplicates int
}

func (it *iteration) setup() time.Duration  { return it.first.at.Sub(it.start) }
func (it *iteration) active() time.Duration { return it.end.Sub(it.first.at) }

// finish stamps the end of the measured window, before any checking.
func (it *iteration) finish() {
	to := readRuntime()
	it.end = to.at
	it.cpu = to.cpu - it.first.cpu
	it.rt.add(it.rtFrom, to)
	it.peakRSS, _ = peakRSS() // a failure shows as 0 and fails the run in endToEnd
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's VmHWM in bytes.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 2 && string(f[1]) == "kB" {
				kb, err := strconv.ParseInt(string(f[0]), 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// freshIteration returns the heap to the system and resets VmHWM, so
// every iteration's memory and garbage collection start from the same
// state and its peak RSS is its own.
func freshIteration() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeDelta is what the Go runtime spent during the measured windows.
type runtimeDelta struct {
	gcCPU      float64 // seconds
	allocObjs  float64
	allocBytes float64
	cpu        time.Duration
	wall       time.Duration
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

type rtPoint struct {
	vals [3]float64
	cpu  time.Duration
	at   time.Time
}

func readRuntime() rtPoint {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	var p rtPoint
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			p.vals[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			p.vals[i] = float64(s[i].Value.Uint64())
		}
	}
	p.cpu, p.at = cpuTime(), time.Now()
	return p
}

func (d *runtimeDelta) add(from, to rtPoint) {
	d.gcCPU += to.vals[0] - from.vals[0]
	d.allocObjs += to.vals[1] - from.vals[1]
	d.allocBytes += to.vals[2] - from.vals[2]
	d.cpu += to.cpu - from.cpu
	d.wall += to.at.Sub(from.at)
}

// measure runs one warm-up iteration, which fills the engine's pools and
// the runtime's caches and is checked but not measured, then iterations
// of w until seconds have passed and at least minIters completed. It
// returns every iteration, the warm-up first. An iteration error ends
// the loop: the result is then incorrect.
func measure(ctx context.Context, w *workload, e *env, seconds float64, minIters int) ([]*iteration, error) {
	var its []*iteration
	var deadline time.Time
	for len(its) <= max(minIters, 1) || time.Now().Before(deadline) {
		if err := freshIteration(); err != nil {
			return its, fmt.Errorf("resetting peak RSS: %w", err)
		}
		it, err := w.run(ctx, e)
		if err == nil && !it.first.done.Load() {
			err = fmt.Errorf("no record reached the output")
		}
		if err != nil {
			return its, fmt.Errorf("%s iteration %d: %w", w.name, len(its), err)
		}
		if its = append(its, it); len(its) == 1 {
			deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
		}
	}
	return its, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of one untraced measurement.
func endToEnd(its []*iteration) (map[string]metric, error) {
	var setup, cpu, rss []float64
	var bytesOut int64
	written := 0
	for _, it := range its {
		if it.peakRSS <= 0 {
			return nil, fmt.Errorf("bench: no peak RSS: /proc/self/status unreadable")
		}
		setup = append(setup, it.setup().Seconds())
		cpu = append(cpu, float64(it.cpu)/float64(time.Millisecond)/(float64(it.records)/1000))
		rss = append(rss, float64(it.peakRSS)/(1<<20))
		bytesOut += it.outBytes
		written += it.written
	}
	return map[string]metric{
		"rec_per_s":       {medianRate(its), "rec/s"},
		"setup_s":         {median(setup), "s"},
		"peak_rss_mb":     {median(rss), "MB"},
		"cpu_ms_per_krec": {median(cpu), "ms"},
		"bytes_per_rec":   {float64(bytesOut) / float64(written), "B"},
	}, nil
}

// endToEndOrder is the order end-to-end metrics are printed in.
var endToEndOrder = []string{"rec_per_s", "setup_s", "peak_rss_mb", "cpu_ms_per_krec", "bytes_per_rec"}

// perLayer computes the per-layer split of a traced measurement. base is
// the untraced measurement of the same run, the source of the runtime
// metrics and of trace.overhead_frac.
func perLayer(t *tracer, traced, base []*iteration) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	secs := func(d time.Duration) float64 { return d.Seconds() }
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	us := func(ns float64) float64 { return ns / 1e3 }

	// A layer every workload calls reports its busy time; one that only
	// some workloads call reports its share of worker-slot time, so a
	// layer a workload never reaches reads as a 0 ratio, never as a time.
	var lc sutpool.Snapshot
	var slotSec float64
	var records int
	var ds distStats
	for _, it := range traced {
		lc.ColdStarts += it.lifecycle.ColdStarts
		lc.Reloads += it.lifecycle.Reloads
		lc.Validates += it.lifecycle.Validates
		lc.Restarts += it.lifecycle.Restarts
		lc.Quarantines += it.lifecycle.Quarantines
		slotSec += it.slotSec
		records += it.records
		ds.shards += it.dist.shards
		ds.retries += it.dist.retries
		ds.duplicates += it.dist.duplicates
	}
	share := func(l layer) float64 { return t.layers[l].sum().Seconds() / slotSec }

	L := &t.layers
	set("plugins.scenarios", float64(L[layerPull].count()), "count")
	set("plugins.busy_s", secs(L[layerPull].sum()), "s")
	set("plugins.ns_per_scenario", per(L[layerPull].sum(), L[layerPull].count()), "ns")
	set("scenario.apply_busy_s", secs(L[layerApply].sum()), "s")
	set("scenario.ns_per_apply", per(L[layerApply].sum(), L[layerApply].count()), "ns")
	set("view.backward_busy_s", secs(L[layerBackward].sum()), "s")
	set("view.ns_per_backward", per(L[layerBackward].sum(), L[layerBackward].count()), "ns")
	set("view.not_expressible", float64(t.notExpressible.Load()), "count")
	set("formats.serialize_busy_s", secs(L[layerSerialize].sum()), "s")
	set("formats.ns_per_serialize", per(L[layerSerialize].sum(), L[layerSerialize].count()), "ns")
	bps := 0.0
	if n := L[layerSerialize].count(); n > 0 {
		bps = float64(t.serializeBytes.Load()) / float64(n)
	}
	set("formats.bytes_per_serialize", bps, "B")
	set("formats.parse_busy_s", secs(L[layerParse].sum()), "s")
	// Which SUT phases run depends on the lifecycle: validate-only never
	// starts or probes a SUT.
	var sutBusy time.Duration
	for _, p := range []struct {
		name string
		l    layer
	}{{"start", layerStart}, {"reload", layerReload}, {"validate", layerValidate}, {"stop", layerStop}, {"probe", layerProbe}} {
		set("suts."+p.name+".calls", float64(L[p.l].count()), "count")
		set("suts."+p.name+".share", share(p.l), "ratio")
		sutBusy += L[p.l].sum()
	}
	set("suts.busy_s", secs(sutBusy), "s")
	set("suts.rejects", float64(t.rejects.Load()), "count")

	set("sutpool.cold_starts", float64(lc.ColdStarts), "count")
	set("sutpool.reloads", float64(lc.Reloads), "count")
	set("sutpool.validates", float64(lc.Validates), "count")
	set("sutpool.restarts", float64(lc.Restarts), "count")
	set("sutpool.quarantines", float64(lc.Quarantines), "count")
	warm := 0.0
	if n := lc.Reloads + lc.ColdStarts; n > 0 {
		warm = float64(lc.Reloads) / float64(n)
	}
	set("sutpool.warm_frac", warm, "ratio")

	self := slotSec - t.leafBusy().Seconds()
	set("core.self_s", self, "s")
	set("core.unattributed_frac", self/slotSec, "ratio")
	set("core.exp_p50_us", us(t.expDur.quantile(0.50)), "us")
	set("core.exp_p99_us", us(t.expDur.quantile(0.99)), "us")

	set("profile.write_busy_s", secs(L[layerWrite].sum()), "s")
	set("profile.ns_per_write", per(L[layerWrite].sum(), L[layerWrite].count()), "ns")
	set("profile.to_jsonl_share", share(layerToJSONL), "ratio")
	set("profile.fold_jsonl_share", share(layerFoldJSONL), "ratio")
	set("profile.to_cprof_share", share(layerToCprof), "ratio")
	set("profile.fold_cprof_share", share(layerFoldCprof), "ratio")

	set("dist.shards", float64(ds.shards), "count")
	set("dist.retries", float64(ds.retries), "count")
	set("dist.duplicates", float64(ds.duplicates), "count")
	set("dist.shard_share", share(layerShard), "ratio")
	set("dist.emit_share", share(layerEmit), "ratio")
	wire := 0.0
	if L[layerEmit].count() > 0 && records > 0 {
		wire = float64(t.wireBytes.Load()) / float64(records)
	}
	set("dist.wire_bytes_per_rec", wire, "B")

	var rt runtimeDelta
	var baseRecs int
	for _, it := range base {
		rt.gcCPU += it.rt.gcCPU
		rt.allocObjs += it.rt.allocObjs
		rt.allocBytes += it.rt.allocBytes
		rt.cpu += it.rt.cpu
		rt.wall += it.rt.wall
		baseRecs += it.records
	}
	set("runtime.gc_cpu_frac", rt.gcCPU/rt.cpu.Seconds(), "ratio")
	set("runtime.mallocs_per_rec", rt.allocObjs/float64(baseRecs), "count")
	set("runtime.alloc_bytes_per_rec", rt.allocBytes/float64(baseRecs), "B")
	set("runtime.cpu_util", rt.cpu.Seconds()/(rt.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")

	set("trace.overhead_frac", 1-medianRate(traced)/medianRate(base), "ratio")
	return m
}

// medianRate is the median over iterations of records per active second.
func medianRate(its []*iteration) float64 {
	var rate []float64
	for _, it := range its {
		rate = append(rate, float64(it.records)/it.active().Seconds())
	}
	return median(rate)
}

// printMetrics writes "workload metric value unit" lines in name order.
func printMetrics(w *bufio.Writer, workload string, m map[string]metric, order []string) {
	if order == nil {
		for name := range m {
			order = append(order, name)
		}
		sort.Strings(order)
	}
	for _, name := range order {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, name, strconv.FormatFloat(m[name].Value, 'g', -1, 64), m[name].Unit)
	}
}
