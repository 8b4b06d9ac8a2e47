package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"os"
	"slices"
	"testing"

	"conferr"
	"conferr/internal/core"
	"conferr/internal/profile"
)

func TestHistogramBucketsCoverEveryValue(t *testing.T) {
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 1000, 123456789, 1 << 40, 1<<62 + 12345} {
		b := bucketOf(v)
		if hi := bucketHigh(b); hi < v {
			t.Errorf("value %d in bucket %d whose top is %d", v, b, hi)
		}
		if b > 0 && bucketHigh(b-1) >= v {
			t.Errorf("value %d in bucket %d, but bucket %d already reaches %d", v, b, b-1, bucketHigh(b-1))
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and (range(1, 6), n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestWrapperParity pins that every traced wrapper exposes exactly the
// optional interfaces of what it wraps: otherwise the traced run would
// take a different executor or lifecycle path than the untraced one.
func TestWrapperParity(t *testing.T) {
	tr := newTracer()
	for _, name := range conferr.RegisteredTargets() {
		f, err := conferr.LookupTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range []conferr.TargetFactory{f, conferr.InMemoryTransport(f)} {
			st, err := tf(0)
			if err != nil {
				t.Fatal(err)
			}
			w := &worker{t: tr}
			sys, err := w.system(st.Target.System)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := capsOf(sys), capsOf(st.Target.System)|capsUnwrap; got != want {
				t.Errorf("%s system: wrapper has %s, want %s", name, got, want)
			}
			for file, f := range st.Target.Formats {
				tf, err := w.format(f)
				if err != nil {
					t.Fatalf("%s %s: %v", name, file, err)
				}
				if got, want := capsOf(tf), capsOf(f); got != want {
					t.Errorf("%s %s format: wrapper has %s, want %s", name, file, got, want)
				}
			}
		}
	}

	entries, _, err := conferr.MatrixEntries(conferr.RegisteredTargets(), conferr.RegisteredGenerators(), conferr.GeneratorOptions{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		gf, err := conferr.LookupGenerator(e.Plugin)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gf(e.Options)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := tr.generator(g)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.System, e.Plugin, err)
		}
		if got, want := capsOf(tg), capsOf(g); got != want {
			t.Errorf("%s/%s generator: wrapper has %s, want %s", e.System, e.Plugin, got, want)
		}
		if got, want := capsOf(tg.View()), capsOf(g.View()); got != want {
			t.Errorf("%s/%s view: wrapper has %s, want %s", e.System, e.Plugin, got, want)
		}
		if got, want := core.CanShard(conferr.RepeatGenerator(tg, 2)), core.CanShard(conferr.RepeatGenerator(g, 2)); got != want {
			t.Errorf("%s/%s: repeated wrapper shardable %v, want %v", e.System, e.Plugin, got, want)
		}
	}

	cw := conferr.NewCprofWriter(io.Discard)
	for name, s := range map[string]conferr.Sink{
		"jsonl":   conferr.NewJSONLSink(io.Discard, "s", "g"),
		"cprof":   cw.Sink("s", "g"),
		"tally":   &conferr.TallySink{},
		"discard": conferr.DiscardSink,
	} {
		for _, inner := range []conferr.Sink{s, conferr.StripDurations(s)} {
			ws, err := wrapSink(inner, tr, &firstRecord{})
			if err != nil {
				t.Fatalf("%s sink: %v", name, err)
			}
			if got, want := capsOf(ws), capsOf(inner); got != want {
				t.Errorf("%s sink: wrapper has %s, want %s", name, got, want)
			}
			if got, want := profile.CanShardSink(ws), profile.CanShardSink(inner); got != want {
				t.Errorf("%s sink: wrapper shardable %v, want %v", name, got, want)
			}
		}
	}
}

// TestTracedMatchesUntraced runs a slice of about 5k scenarios of every
// workload with and without the span wrappers: the outputs and the
// lifecycle counters must agree.
func TestTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 12, scale: 1.0 / 10, dir: t.TempDir()}
			plain, err := w.run(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			te := *e
			te.tr = newTracer()
			traced, err := w.run(ctx, &te)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCells(plain.cells, traced.cells); err != nil {
				t.Errorf("traced output differs: %v", err)
			}
			// The facade's dist runner keeps its lifecycle counters private.
			if w.kind != kindDist && plain.lifecycle != traced.lifecycle {
				t.Errorf("lifecycle counters: untraced %+v, traced %+v", plain.lifecycle, traced.lifecycle)
			}
			if te.tr.layers[layerApply].count() == 0 {
				t.Error("the traced run recorded no spans")
			}
		})
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with
// the code.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestSmoke runs every workload at 1/200 scale through the whole run —
// untraced, reference, traced — with the correctness gate on, and checks
// that it reports exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	units := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	wantE2E, wantLayers := units(b.EndToEnd), units(b.PerLayer)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(context.Background(), w, &env{seed: 12, scale: 1.0 / 200, dir: t.TempDir()}, 0, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.problems {
				t.Error(p)
			}
			for _, c := range []struct {
				what string
				got  map[string]metric
				want map[string]string
			}{{"end-to-end", rep.endToEnd, wantE2E}, {"per-layer", rep.layers, wantLayers}} {
				if got, want := slices.Sorted(maps.Keys(c.got)), slices.Sorted(maps.Keys(c.want)); !slices.Equal(got, want) {
					t.Errorf("%s metrics %v, BENCHMARK.json names %v", c.what, got, want)
				}
				for name, m := range c.got {
					if c.want[name] != "" && m.Unit != c.want[name] {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, c.want[name])
					}
				}
			}
			for _, name := range endToEndOrder {
				if rep.endToEnd[name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, rep.endToEnd[name].Value)
				}
			}
			// A layer a workload never calls must read as a ratio or a
			// count, never as a time stuck at 0.
			for name, m := range rep.layers {
				if (m.Unit == "s" || m.Unit == "ns" || m.Unit == "us") && m.Value == 0 {
					t.Errorf("%s: a time of 0", name)
				}
			}
		})
	}
}
