// Package core implements the ConfErr engine — the paper's primary
// contribution (§3): it drives parsing of the initial configuration files,
// mapping to the plugin-specific view, fault-scenario generation and
// application, mapping back (detecting inexpressible mutations),
// serialization, SUT start/stop, functional testing, and the recording of
// every outcome into a resilience profile.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"conferr/internal/confnode"
	"conferr/internal/formats"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/sutpool"
	"conferr/internal/suts"
	"conferr/internal/view"
)

// Generator is an error-generator plugin: it enumerates fault scenarios
// over the plugin-specific view of the configuration and names the view it
// requires (paper §4).
type Generator interface {
	// Name identifies the plugin for the profile.
	Name() string
	// View returns the configuration view the plugin's scenarios apply to.
	View() view.View
	// Generate enumerates fault scenarios for the given view of the
	// initial configuration.
	Generate(viewSet *confnode.Set) ([]scenario.Scenario, error)
}

// StreamingGenerator is a Generator that can emit its faultload lazily,
// one scenario at a time, instead of materializing it as a slice. The
// stream must enumerate exactly the scenarios Generate would return, in
// the same order: Collect(GenerateStream(set)) ≡ Generate(set). The
// streaming campaign runner pulls from this stream, so a faultload's size
// is bounded by patience, not by memory.
type StreamingGenerator interface {
	Generator
	// GenerateStream returns the generator's faultload as a pull stream.
	// Like Generate, it may consume internal generator state (RNGs), so
	// call exactly one of the two per campaign.
	GenerateStream(viewSet *confnode.Set) scenario.Source
}

// ShardedGenerator is a StreamingGenerator whose faultload can be pulled
// as n disjoint strided shards, independently and concurrently: shard k
// of n yields exactly the scenarios GenerateStream would yield at
// positions k, k+n, k+2n, … Implementations must be pure — repeated
// GenerateStream/GenerateShard calls over the same view set enumerate the
// identical stream, with any randomness derived afresh from a fixed seed
// per call — so the union of all n shards, interleaved by stride, equals
// the unsharded stream for every n. The campaign engine hands every
// worker its own shard: generation fans out across the workers instead
// of serializing behind one shared pull.
type ShardedGenerator interface {
	StreamingGenerator
	// GenerateShard returns shard k of n of the faultload.
	GenerateShard(viewSet *confnode.Set, k, n int) scenario.Source
}

// CanShard reports whether the generator supports sharded generation.
// Wrapper generators (the combinators) implement GenerateShard
// unconditionally but are only shard-stable when every generator they
// wrap is; such types report the effective capability via a
// Shardable() bool method, which takes precedence here.
func CanShard(gen Generator) bool {
	if s, ok := gen.(interface{ Shardable() bool }); ok {
		return s.Shardable()
	}
	_, ok := gen.(ShardedGenerator)
	return ok
}

// StreamOf returns the generator's faultload as a stream: lazily when the
// generator implements StreamingGenerator, otherwise by materializing
// Generate's slice — slice-based plugins keep working unchanged on every
// streaming path.
func StreamOf(gen Generator, viewSet *confnode.Set) scenario.Source {
	if sg, ok := gen.(StreamingGenerator); ok {
		return sg.GenerateStream(viewSet)
	}
	return func(yield func(scenario.Scenario, error) bool) {
		scens, err := gen.Generate(viewSet)
		if err != nil {
			yield(scenario.Scenario{}, err)
			return
		}
		for _, sc := range scens {
			if !yield(sc, nil) {
				return
			}
		}
	}
}

// Target bundles everything system-specific: the SUT, the format of each
// of its configuration files, and the functional tests (paper §5.1's three
// system-specific components).
type Target struct {
	// System is the system under test.
	System suts.System
	// Formats maps each configuration file name to its format.
	Formats map[string]formats.Format
	// Tests are the functional tests run after a successful start.
	Tests []suts.Test

	// inst is the SUT adapter every phase of an experiment goes through
	// and wd the phase watchdog, nil unless deadlines are armed. Both are
	// set on the engine's private per-worker copy (see workerTargets).
	inst *sutpool.Instance
	wd   *watchdog
}

// adapter returns the SUT adapter for sys: sys itself when it already is
// a *sutpool.Instance, otherwise a cold Instance around it.
func adapter(sys suts.System) *sutpool.Instance {
	if inst, ok := sys.(*sutpool.Instance); ok {
		return inst
	}
	return sutpool.NewInstance(sys, sutpool.Cold, nil)
}

// instance returns the target's SUT adapter, building it on first use
// for a target no run prepared (runOne called directly).
func (t *Target) instance() *sutpool.Instance {
	if t.inst == nil {
		t.inst = adapter(t.System)
	}
	return t.inst
}

// Campaign is one ConfErr run: a target plus an error generator.
type Campaign struct {
	// Target is the system-specific bundle.
	Target *Target
	// Generator is the error-generator plugin.
	Generator Generator
}

// faultload is the immutable state every scenario of a campaign is
// injected against: the view, both representations of the initial
// configuration, and the precomputed fast-path state. Workers share it
// read-only; the scenarios themselves stream past (see shardFeed).
type faultload struct {
	view    view.View
	viewSet *confnode.Set
	sysSet  *confnode.Set

	// incInto, baseSys and baseBytes are the incremental injection
	// pipeline's state. incInto is the view's incremental back-transform;
	// workers thread their scratch tracked system set through it instead
	// of allocating one per experiment. baseSys is the frozen baseline
	// round trip (Backward over the unmutated view) that every experiment
	// folds onto: folding an unchanged view line onto it writes nothing,
	// so the word view skips such lines exactly, even where it normalizes
	// a value. baseBytes caches, once per campaign, baseSys serialized:
	// per scenario, only the files the mutation dirtied are re-serialized
	// and every clean file reuses its cached slice.
	incInto   view.IncrementalInto
	baseSys   *confnode.Set
	baseBytes map[string][]byte
	// baseSpans holds, for each file whose format is a
	// formats.SpliceFormat, the span of every baseSys node in the file's
	// baseBytes. runOne splices such a dirty file: every node it still
	// shares with baseSys is copied from baseBytes, and only the nodes
	// the fold copied are rendered. baseSys lives as long as the
	// campaign and is never written, so a node that is still baseSys's
	// own renders to exactly its recorded bytes.
	baseSpans map[string]formats.Spans
}

// generateBase parses the initial configuration, maps it into the plugin
// view and precomputes the fast-path state — everything the campaign needs
// before the first scenario exists.
func (c *Campaign) generateBase() (*faultload, error) {
	sysSet, err := c.parseInitial()
	if err != nil {
		return nil, fmt.Errorf("core: parsing initial configuration: %w", err)
	}
	v := c.Generator.View()
	viewSet, err := v.Forward(sysSet)
	if err != nil {
		return nil, fmt.Errorf("core: forward transform (%s): %w", v.Name(), err)
	}
	fl := &faultload{view: v, viewSet: viewSet, sysSet: sysSet}
	// Freeze the baseline sets before any clone exists: every experiment's
	// materialized trees then share the baseline attribute maps
	// copy-on-write instead of re-hashing them per injection.
	fl.sysSet.Freeze()
	fl.viewSet.Freeze()
	if err := fl.prepareFastPath(c.Target); err != nil {
		return nil, fmt.Errorf("core: baseline round trip (%s): %w", v.Name(), err)
	}
	return fl, nil
}

// generateStream is generateBase plus the faultload as one lazy pull
// stream, each scenario shape-validated as it streams past (checkScenario).
// It keeps no duplicate-ID set, which would grow with the faultload:
// RunContext's sink keeps one.
func (c *Campaign) generateStream() (*faultload, scenario.Source, error) {
	fl, err := c.generateBase()
	if err != nil {
		return nil, nil, err
	}
	src := scenario.Source(func(yield func(scenario.Scenario, error) bool) {
		i := 0
		StreamOf(c.Generator, fl.viewSet)(func(sc scenario.Scenario, serr error) bool {
			if serr != nil {
				yield(sc, fmt.Errorf("core: generating scenarios: %w", serr))
				return false
			}
			if verr := c.checkScenario(i, sc); verr != nil {
				yield(scenario.Scenario{}, verr)
				return false
			}
			i++
			return yield(sc, nil)
		})
	})
	return fl, src, nil
}

// checkScenario refuses the malformed scenario at sequence seq: an empty
// Class, say, would put a silent "" bucket in every per-class table.
func (c *Campaign) checkScenario(seq int, sc scenario.Scenario) error {
	if err := sc.Validate(); err != nil {
		return fmt.Errorf("core: plugin %s emitted invalid scenario #%d: %w", c.Generator.Name(), seq, err)
	}
	return nil
}

// prepareFastPath keeps the frozen baseline round trip and caches its
// bytes. Every campaign runs on the incremental pipeline, so a view
// without an incremental back-transform into a reused wrapper
// (view.IncrementalInto), an unmutated configuration the view cannot
// round-trip, a file without a format or a serializer error fails the
// campaign at start.
func (fl *faultload) prepareFastPath(t *Target) error {
	inc, ok := fl.view.(view.IncrementalInto)
	if !ok {
		return errors.New("view has no incremental back-transform (view.IncrementalInto)")
	}
	// Clone defensively: Backward's historical contract lets a view
	// mutate the passed-in set, and this one is the campaign-wide
	// baseline every scenario is tracked against.
	baseSys, err := fl.view.Backward(fl.viewSet.Clone(), fl.sysSet)
	if err != nil {
		return err
	}
	baseBytes := make(map[string][]byte, baseSys.Len())
	var baseSpans map[string]formats.Spans
	for _, name := range baseSys.Names() {
		f := t.Formats[name]
		if f == nil {
			return fmt.Errorf("no format registered for file %q", name)
		}
		sf, ok := f.(formats.SpliceFormat)
		if !ok {
			data, err := f.Serialize(baseSys.Get(name))
			if err != nil {
				return fmt.Errorf("serializing %s: %w", name, err)
			}
			baseBytes[name] = data
			continue
		}
		// One recording pass yields both the bytes and their spans.
		var b bytes.Buffer
		spans := formats.Spans{}
		if err := sf.SerializeSpans(&b, baseSys.Get(name), spans); err != nil {
			return fmt.Errorf("serializing %s: %w", name, err)
		}
		if baseSpans == nil {
			baseSpans = make(map[string]formats.Spans)
		}
		baseBytes[name], baseSpans[name] = b.Bytes(), spans
	}
	// Each worker's files map is pre-populated from baseBytes and only
	// dirty files are serialized, so baseBytes must name exactly the
	// baseline system files: a view whose round trip drops or invents
	// files would silently hand the SUT the wrong file set.
	if baseSys.Len() != fl.sysSet.Len() {
		return fmt.Errorf("%d files, want %d", baseSys.Len(), fl.sysSet.Len())
	}
	for _, name := range fl.sysSet.Names() {
		if _, ok := baseBytes[name]; !ok {
			return fmt.Errorf("file %q lost", name)
		}
	}
	baseSys.Freeze()
	fl.incInto, fl.baseSys, fl.baseBytes, fl.baseSpans = inc, baseSys, baseBytes, baseSpans
	return nil
}

// scratch is per-worker reusable state threaded through every injection a
// worker runs: the node arena backing the experiment's cloned trees, the
// reusable tracked wrapper of the view set, the dirty-file scratch
// slices, the files map handed to the SUT and the serialization buffer.
// One experiment fully recycles into the next — the steady-state hot path
// allocates only what must outlive the call (the mutated files' bytes).
// Workers never share a scratch.
type scratch struct {
	buf     bytes.Buffer
	arena   confnode.Arena
	tracked *confnode.Set
	// sysTracked is the reusable tracked wrapper of the system set the
	// incremental back-transform rebuilds per experiment (see
	// view.IncrementalInto); like tracked, its materialized trees live on
	// the arena.
	sysTracked *confnode.Set
	dirty      []string
	sysDirty   []string
	files      suts.Files
	// filesFor remembers which campaign's baseline the files map is
	// pre-populated with; a pooled scratch crossing into a new campaign
	// rebuilds it (see runOne).
	filesFor *faultload
}

// scratchPool recycles per-worker scratches — with their warmed arenas,
// maps and buffers — across workers, campaigns and suite cells, so a
// campaign's first experiments don't pay the warm-up that its thousandth
// doesn't. Scratches are owned exclusively between Get and Put.
var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// serialize renders one file tree, reusing the scratch buffer for formats
// that support it. With spans, a formats.SpliceFormat splices the tree
// against base, the bytes the spans were recorded in. The returned slice
// is always freshly allocated — SUTs may hold onto the config bytes
// across Start/Stop — but the serializer's intermediate growth happens
// in the pooled buffer.
//
// The spans come from the campaign target's format and f is the worker
// target's; a target factory registers the same formats on every
// instance it builds.
func (s *scratch) serialize(f formats.Format, root *confnode.Node, base []byte, spans formats.Spans) ([]byte, error) {
	bf, ok := f.(formats.BufferedFormat)
	if !ok {
		return f.Serialize(root)
	}
	s.buf.Reset()
	var err error
	if sf, ok := f.(formats.SpliceFormat); ok && spans != nil {
		err = sf.SpliceTo(&s.buf, root, base, spans)
	} else {
		err = bf.SerializeTo(&s.buf, root)
	}
	if err != nil {
		return nil, err
	}
	out := make([]byte, s.buf.Len())
	copy(out, s.buf.Bytes())
	return out, nil
}

// parseInitial parses the SUT's default configuration files into the
// system representation.
func (c *Campaign) parseInitial() (*confnode.Set, error) {
	files := c.Target.System.DefaultConfig()
	set := confnode.NewSet()
	// Files iterates in map order; fix a deterministic order by name.
	for _, name := range sortedNames(files) {
		f, ok := c.Target.Formats[name]
		if !ok {
			return nil, fmt.Errorf("no format registered for file %q", name)
		}
		root, err := f.Parse(name, files[name])
		if err != nil {
			return nil, err
		}
		set.Put(name, root)
	}
	return set, nil
}

// runOne performs a single injection experiment against the given target
// (the campaign's own, or a worker's private instance). The returned error
// is an infrastructure failure; SUT detections are encoded in the record.
//
// This is the incremental pipeline: the scenario mutates a copy-on-write
// wrapper of the view, so only the files it actually touches are cloned;
// the backward transform folds only those files; and serialization runs
// only over the system files the fold rewrote, with every clean file
// reusing its cached baseline bytes.
func runOne(t *Target, sc scenario.Scenario, fl *faultload, scr *scratch) (profile.Record, error) {
	start := time.Now()
	rec := profile.Record{
		ScenarioID:  sc.ID,
		Class:       sc.Class,
		Description: sc.Description,
	}
	finish := func(o profile.Outcome, detail string) profile.Record {
		rec.Outcome = o
		rec.Detail = detail
		rec.Duration = time.Since(start)
		return rec
	}

	// 1. Mutate a copy-on-write wrapper of the view: Apply may mutate
	// freely, and the wrapper records which files it reached. The wrapper
	// and every tree it materializes are recycled per-worker scratch: the
	// arena reset reclaims the previous experiment's clones in one step.
	scr.arena.Reset()
	scr.tracked = fl.viewSet.TrackedInto(scr.tracked, &scr.arena)
	mutated := scr.tracked
	if err := sc.Apply(mutated); err != nil {
		if errors.Is(err, scenario.ErrNotApplicable) {
			return finish(profile.NotApplicable, err.Error()), nil
		}
		return finish(profile.NotApplicable, err.Error()), err
	}
	scr.dirty = mutated.SealAppend(scr.dirty[:0])

	// 2. Map back to the system representation; expressiveness gaps are a
	// first-class outcome (paper §5.4). The incremental transform folds
	// only the dirty files onto the frozen baseline round trip and reports
	// which system files it rewrote.
	mutatedSys, err := fl.incInto.IncrementalBackwardInto(scr.sysTracked, scr.dirty, mutated, fl.baseSys)
	if mutatedSys != nil {
		scr.sysTracked = mutatedSys
	}
	if err != nil {
		if errors.Is(err, view.ErrNotExpressible) {
			return finish(profile.NotExpressible, err.Error()), nil
		}
		return finish(profile.NotApplicable, err.Error()), err
	}
	scr.sysDirty = mutatedSys.SealAppend(scr.sysDirty[:0])
	sysDirty := scr.sysDirty

	// 3. Serialize only the dirty files to their native formats, splicing
	// those whose format can (see baseSpans). The worker's files map is
	// pre-populated with the campaign's baseline bytes (prepareFastPath
	// guarantees baseBytes covers every baseline file), so an experiment
	// touches only its dirty entries — written before the run, restored
	// after — instead of rebuilding a full map per injection.
	// suts.System.Start may retain the byte slices, never the map itself.
	if scr.files == nil || scr.filesFor != fl {
		if scr.files == nil {
			scr.files = make(suts.Files, len(fl.baseBytes))
		} else {
			clear(scr.files)
		}
		for name, data := range fl.baseBytes {
			scr.files[name] = data
		}
		scr.filesFor = fl
	}
	files := scr.files
	defer func() {
		for _, name := range sysDirty {
			if data, ok := fl.baseBytes[name]; ok {
				files[name] = data
			} else {
				delete(files, name)
			}
		}
	}()
	for _, name := range sysDirty {
		f := t.Formats[name]
		if f == nil {
			// A scenario introduced a file no registered format can
			// express — an expressiveness gap, not a crash.
			return finish(profile.NotExpressible,
				fmt.Sprintf("no format registered for file %q", name)), nil
		}
		data, serr := scr.serialize(f, mutatedSys.Get(name), fl.baseBytes[name], fl.baseSpans[name])
		if serr != nil {
			return finish(profile.NotExpressible, serr.Error()), nil
		}
		files[name] = data
	}
	return runOnFiles(t, files, finish)
}

// runOneSafe is runOne behind the per-experiment panic boundary: a panic
// anywhere in the injection pipeline — a plugin's Apply, a view
// transform, a serializer, the SUT itself — becomes an
// InfrastructureError record carrying the panic value and stack, plus an
// error that follows the normal keep-going discipline, instead of
// killing the process. Every campaign path calls this, never runOne
// directly.
func runOneSafe(t *Target, sc scenario.Scenario, fl *faultload, scr *scratch) (rec profile.Record, err error) {
	defer func() {
		if v := recover(); v != nil {
			rec = profile.Record{
				ScenarioID:  sc.ID,
				Class:       sc.Class,
				Description: sc.Description,
				Outcome:     profile.InfrastructureError,
				Detail:      fmt.Sprintf("panic: %v\n%s", v, debug.Stack()),
			}
			err = fmt.Errorf("core: panic in scenario %s: %v", sc.ID, v)
			// The panic may have left the scratch's cached state (tracked
			// wrappers, pre-populated files map) half-mutated; drop the
			// caches so the next experiment rebuilds them from the baseline.
			scr.tracked = nil
			scr.sysTracked = nil
			scr.files = nil
			scr.filesFor = nil
		}
	}()
	return runOne(t, sc, fl, scr)
}

// isInfraPhaseErr reports whether a phase error is the harness's own
// failure (watchdog expiry, contained panic) rather than a SUT verdict.
func isInfraPhaseErr(err error) bool {
	return suts.IsPhaseTimeout(err) || suts.IsPhasePanic(err)
}

// runOnFiles drives steps 4 and 5 — start the SUT on the mutated bytes,
// run the functional tests, stop. The SUT gets the bytes and nothing else. With
// deadlines armed every phase runs under the target's watchdog.
func runOnFiles(t *Target, files suts.Files, finish func(profile.Outcome, string) profile.Record) (profile.Record, error) {
	inst, wd := t.instance(), t.wd
	// 4. Start the SUT with the faulty configuration.
	var err error
	if wd != nil {
		err = wd.start(files)
	} else {
		err = inst.Start(files)
	}
	if err != nil {
		stopErr := stopPhase(inst, wd)
		if suts.IsStartupError(err) {
			// The experiment succeeded: the SUT detected the fault. A
			// failed cleanup after that is worth recording but must not
			// abort the campaign.
			detail := err.Error()
			if stopErr != nil {
				detail += "; stop after rejected start: " + stopErr.Error()
			}
			return finish(profile.DetectedAtStartup, detail), nil
		}
		if isInfraPhaseErr(err) {
			// A watchdog expiry or contained panic in the start phase: the
			// harness failed the experiment, not the SUT. Record it and
			// keep the campaign going whatever the keep-going option — the
			// instance is already quarantined and the next scenario gets a
			// fresh (cold) start.
			detail := err.Error()
			if stopErr != nil {
				detail += "; stop after failed start: " + stopErr.Error()
			}
			return finish(profile.InfrastructureError, detail), nil
		}
		// Non-startup failures (e.g. port in use) are infrastructure
		// problems, not SUT detections.
		return finish(profile.NotApplicable, err.Error()), err
	}

	// 5. Run the functional tests. A validate-only lifecycle has nothing
	// listening after a successful "start", so its probes are skipped.
	outcome, detail := profile.Ignored, ""
	if !inst.SkipProbes() {
		for _, test := range t.Tests {
			var terr error
			if wd != nil {
				terr = wd.run("probe:"+test.Name, test.Run)
			} else {
				terr = test.Run()
			}
			if terr != nil {
				if isInfraPhaseErr(terr) {
					// A wedged or panicking probe says nothing about the
					// SUT; the watchdog has quarantined the instance.
					outcome = profile.InfrastructureError
					detail = fmt.Sprintf("%s: %v", test.Name, terr)
					break
				}
				outcome = profile.DetectedByTest
				detail = fmt.Sprintf("%s: %v", test.Name, terr)
				break
			}
		}
	}
	if err := stopPhase(inst, wd); err != nil {
		if isInfraPhaseErr(err) && outcome != profile.InfrastructureError {
			// A stop phase that wedged compromises the experiment's
			// environment even when the probes ran clean: classify the
			// record as the harness's failure, keeping the probe verdict
			// in the detail for the audit trail.
			if detail != "" {
				detail += "; "
			}
			return finish(profile.InfrastructureError, detail+"stop: "+err.Error()), nil
		}
		// The experiment itself succeeded; a failed cleanup is worth
		// recording but must not abort the campaign, mirroring the stop
		// errors after a rejected start above.
		if detail != "" {
			detail += "; "
		}
		detail += "stop after run: " + err.Error()
	}
	return finish(outcome, detail), nil
}

// stopPhase stops the SUT, under the watchdog when one is armed.
func stopPhase(inst *sutpool.Instance, wd *watchdog) error {
	if wd != nil {
		return wd.run("stop", inst.Stop)
	}
	return inst.Stop()
}

// baselineOn verifies that the unmutated default configuration starts
// the SUT and passes all functional tests; campaigns are meaningless
// without this invariant (a failing test would count every scenario as
// detected). It starts the SUT on baseBytes, the bytes every clean file
// of every experiment reuses.
func (c *Campaign) baselineOn(baseBytes map[string][]byte) error {
	if err := c.Target.System.Start(maps.Clone(baseBytes)); err != nil {
		_ = c.Target.System.Stop()
		return fmt.Errorf("core: baseline start: %w", err)
	}
	defer func() { _ = c.Target.System.Stop() }()
	for _, t := range c.Target.Tests {
		if err := t.Run(); err != nil {
			return fmt.Errorf("core: baseline test %s: %w", t.Name, err)
		}
	}
	return nil
}

func sortedNames(files suts.Files) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
