package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/formats"
	"conferr/internal/formats/apacheconf"
	"conferr/internal/formats/ini"
	"conferr/internal/formats/kv"
	"conferr/internal/formats/nginxconf"
	"conferr/internal/formats/tinydns"
	"conferr/internal/formats/zonefile"
	"conferr/internal/plugins/typo"
	"conferr/internal/profile"
	"conferr/internal/scenario"
	"conferr/internal/sutpool"
	"conferr/internal/suts"
	"conferr/internal/template"
	"conferr/internal/view"
)

// digestSystem rejects every configuration with a startup error carrying a
// digest of the exact bytes it was handed. Each profile record's detail
// therefore fingerprints the serialized configuration of that experiment:
// equal profiles mean byte-identical mutated configurations, which is the
// equivalence the fast path owes the reference path.
type digestSystem struct{}

func (digestSystem) Name() string { return "digest" }

func (digestSystem) DefaultConfig() suts.Files {
	return suts.Files{
		"a.conf": []byte("alpha = 1\nbravo = two words\n# comment\n"),
		"b.conf": []byte("charlie = 3\ndelta = 4\n"),
		"c.conf": []byte("echo = 5\nfoxtrot = 6\ngolf = 7\n"),
		// One file per remaining registered codec, so the equivalence
		// contract covers the whole format matrix. d.nginx adds the
		// recursive shape (directives inside nested sections),
		// exercising dirty-file tracking and per-file re-serialization
		// on trees the seed's flat formats never built.
		"d.nginx": []byte("events {\n    worker_connections 64;\n}\nhttp {\n    server {\n        listen 8080;\n        location / {\n            root /srv;\n        }\n    }\n}\n"),
		"f.ini":   []byte("[server]\nhotel = 8\n[client]\nindia = 9\n"),
		"g.httpd": []byte("Listen 1234\n<Files x>\nJuliet 10\n</Files>\n"),
		"h.zone":  []byte("$TTL 3600\nexample.com.\tIN\tNS\tns.example.com.\nwww\tA\t192.0.2.1\n"),
		"i.tiny":  []byte("# tinydns\n=www.example.com:192.0.2.1:86400\n"),
		"l.raw":   []byte("opaque passthrough bytes\n"),
	}
}

func (digestSystem) Start(files suts.Files) error {
	h := fnv.New64a()
	for _, name := range sortedNames(files) {
		fmt.Fprintf(h, "%s=%q;", name, files[name])
	}
	return &suts.StartupError{System: "digest", Msg: fmt.Sprintf("digest %x", h.Sum64())}
}

func (digestSystem) Stop() error { return nil }

func digestTarget() *Target {
	return &Target{
		System: digestSystem{},
		Formats: map[string]formats.Format{
			"a.conf":  kv.Format{},
			"b.conf":  kv.Format{},
			"c.conf":  kv.Format{},
			"d.nginx": nginxconf.Format{},
			"f.ini":   ini.Format{},
			"g.httpd": apacheconf.Format{},
			"h.zone":  zonefile.Format{},
			"i.tiny":  tinydns.Format{},
			"l.raw":   formats.Raw{},
			// Registered so scenarios can introduce it; *.zzz stays
			// unregistered to exercise the no-format outcome.
			"extra.conf": kv.Format{},
		},
	}
}

// refProfile runs the campaign through the reference pipeline: full view
// clone, full Backward, full re-serialization, sequentially. Any
// infrastructure error fails the test.
func refProfile(t *testing.T, c *Campaign) *profile.Profile {
	t.Helper()
	fl, scens := collectFaultload(t, c)
	prof := &profile.Profile{System: c.Target.System.Name(), Generator: c.Generator.Name()}
	for _, sc := range scens {
		rec, err := runOneReference(c.Target, sc, fl.view, fl.viewSet, fl.sysSet)
		prof.Add(rec)
		if err != nil {
			t.Fatalf("reference scenario %s: %v", sc.ID, err)
		}
	}
	return prof
}

// mixGen exercises the fast path's corner cases on the struct view: a
// single-file mutation, a cross-set no-op read, a scenario that introduces
// a new file with a registered format, one that introduces a file without
// a format, one that replaces a whole tree via Put, and a Walk-based
// whole-set rewrite (the conservative all-dirty fallback).
type mixGen struct{}

func (mixGen) Name() string    { return "mix" }
func (mixGen) View() view.View { return view.StructView{} }
func (mixGen) Generate(s *confnode.Set) ([]scenario.Scenario, error) {
	var out []scenario.Scenario
	add := func(id string, apply func(*confnode.Set) error) {
		out = append(out, scenario.Scenario{ID: id, Class: "mix", Description: id, Apply: apply})
	}
	tpl := &template.DeleteTemplate{Targets: template.OfKind(confnode.KindDirective)}
	dels, err := scenario.Collect(tpl.GenerateStream(s))
	if err != nil {
		return nil, err
	}
	out = append(out, dels...)
	add("mutate-one", func(s *confnode.Set) error {
		s.Get("b.conf").Child(0).Value = "333"
		return nil
	})
	add("mutate-nginx-nested", func(s *confnode.Set) error {
		// Reach through http > server > location and rewrite a leaf, so
		// only d.nginx is re-serialized and its nested sections survive
		// the incremental fold.
		loc := s.Get("d.nginx").ChildByName("http").ChildByName("server").ChildByName("location")
		loc.ChildByName("root").Value = "/data"
		return nil
	})
	add("read-only", func(s *confnode.Set) error {
		_ = s.Get("a.conf")
		return nil
	})
	add("new-file-known-format", func(s *confnode.Set) error {
		doc := confnode.New(confnode.KindDocument, "extra.conf")
		doc.Append(confnode.NewValued(confnode.KindDirective, "hotel", "8"))
		s.Put("extra.conf", doc)
		return nil
	})
	add("new-file-no-format", func(s *confnode.Set) error {
		s.Put("mystery.zzz", confnode.New(confnode.KindDocument, "mystery.zzz"))
		return nil
	})
	add("replace-tree", func(s *confnode.Set) error {
		doc := confnode.New(confnode.KindDocument, "c.conf")
		doc.Append(confnode.NewValued(confnode.KindDirective, "echo", "50"))
		s.Put("c.conf", doc)
		return nil
	})
	add("walk-rewrite", func(s *confnode.Set) error {
		s.Walk(func(_ string, root *confnode.Node) {
			root.Walk(func(d *confnode.Node) bool {
				if d.Kind == confnode.KindDirective {
					d.Value += "!"
				}
				return true
			})
		})
		return nil
	})
	return out, nil
}

// TestFastPathMatchesReference is the pipeline's equivalence contract:
// for word-view and struct-view faultloads over a multi-file target, the
// incremental engine must produce profiles record-for-record identical to
// the reference full-clone engine at every worker count.
func TestFastPathMatchesReference(t *testing.T) {
	gens := map[string]Generator{
		"typo-wordview":  &typo.Plugin{},
		"mix-structview": mixGen{},
	}
	for label, gen := range gens {
		t.Run(label, func(t *testing.T) {
			want := refProfile(t, &Campaign{Target: digestTarget(), Generator: gen})
			if len(want.Records) == 0 {
				t.Fatal("empty reference faultload")
			}
			for _, workers := range []int{1, 4, 8} {
				c := &Campaign{Target: digestTarget(), Generator: gen}
				opts := []RunOption{}
				if workers > 1 {
					opts = append(opts,
						WithParallelism(workers),
						WithTargetFactory(func() (*Target, error) { return digestTarget(), nil }))
				}
				got, err := c.RunContext(context.Background(), opts...)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if canonical(got) != canonical(want) {
					t.Errorf("workers=%d: fast path diverged from reference\ngot:\n%s\nwant:\n%s",
						workers, canonical(got), canonical(want))
				}
			}
		})
	}
}

// TestStreamingMatchesMaterialized is the streaming pipeline's equivalence
// contract on the full fixture: for word-view and struct-view faultloads
// over the multi-codec digest target, the lazy streaming runner (pull from
// the generator, sequence-numbered reassembly, sink flush) must produce
// profiles record-for-record identical to RunContext's in-memory profile
// and to the reference full-clone engine over the collected faultload, at
// workers 1, 4 and 8.
func TestStreamingMatchesMaterialized(t *testing.T) {
	gens := map[string]func() Generator{
		"typo-wordview":  func() Generator { return &typo.Plugin{} },
		"mix-structview": func() Generator { return mixGen{} },
	}
	for label, mkGen := range gens {
		t.Run(label, func(t *testing.T) {
			ref := refProfile(t, &Campaign{Target: digestTarget(), Generator: mkGen()})
			materialized, err := (&Campaign{Target: digestTarget(), Generator: mkGen()}).
				RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if canonical(materialized) != canonical(ref) {
				t.Fatal("materialized path diverged from reference")
			}
			for _, workers := range []int{1, 4, 8} {
				prof := &profile.Profile{System: materialized.System, Generator: materialized.Generator}
				c := &Campaign{Target: digestTarget(), Generator: mkGen()}
				opts := []RunOption{WithParallelism(workers),
					WithTargetFactory(func() (*Target, error) { return digestTarget(), nil })}
				n, err := c.RunStream(context.Background(), &profile.MemorySink{Profile: prof}, opts...)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if n != len(materialized.Records) {
					t.Errorf("workers=%d: streamed %d records, want %d", workers, n, len(materialized.Records))
				}
				if canonical(prof) != canonical(materialized) {
					t.Errorf("workers=%d: streaming path diverged from materialized\ngot:\n%s\nwant:\n%s",
						workers, canonical(prof), canonical(materialized))
				}
			}
		})
	}
}

// warmDigestSystem is digestSystem's lifecycle-capable sibling: a SUT
// implementing Reloader, Validator and HealthChecker whose verdict on a
// configuration is a pure function of the serialized bytes. Three
// digest residue classes partition the faultload:
//
//	h%3 == 0            rejected — Start, Reload and Validate all return
//	                    a byte-identical StartupError carrying the digest
//	h%3 != 0, h%5 == 0  accepted by Start, but a Reload WEDGES the
//	                    instance (non-startup error), forcing the
//	                    quarantine + cold-restart recovery path
//	otherwise           accepted; the functional probe then fails with
//	                    the digest of the live configuration
//
// Every record therefore fingerprints the configuration it ran on, and
// the wedge class proves warm-mode recovery lands on the same outcome a
// cold start would.
type warmDigestSystem struct {
	running bool
	cur     uint64 // digest of the live configuration
}

func filesDigest(files suts.Files) uint64 {
	h := fnv.New64a()
	for _, name := range sortedNames(files) {
		fmt.Fprintf(h, "%s=%q;", name, files[name])
	}
	return h.Sum64()
}

func (s *warmDigestSystem) Name() string { return "warm-digest" }

func (s *warmDigestSystem) DefaultConfig() suts.Files { return digestSystem{}.DefaultConfig() }

func (s *warmDigestSystem) rejectErr(h uint64) error {
	return &suts.StartupError{System: "warm-digest", Msg: fmt.Sprintf("digest %x", h)}
}

func (s *warmDigestSystem) Start(files suts.Files) error {
	h := filesDigest(files)
	if h%3 == 0 {
		return s.rejectErr(h)
	}
	s.running = true
	s.cur = h
	return nil
}

func (s *warmDigestSystem) Reload(files suts.Files) error {
	if !s.running {
		return errors.New("warm-digest: reload on a stopped instance")
	}
	h := filesDigest(files)
	if h%3 == 0 {
		// Rejected: previous configuration stays live, error wording
		// byte-identical to Start's.
		return s.rejectErr(h)
	}
	if h%5 == 0 {
		// Wedged: the instance dies without applying the new config.
		s.running = false
		s.cur = 0
		return fmt.Errorf("warm-digest: reload wedged on %x", h)
	}
	s.cur = h
	return nil
}

func (s *warmDigestSystem) Validate(files suts.Files) error {
	if h := filesDigest(files); h%3 == 0 {
		return s.rejectErr(h)
	}
	return nil
}

func (s *warmDigestSystem) Stop() error {
	s.running = false
	s.cur = 0
	return nil
}

func (s *warmDigestSystem) Health() error {
	if !s.running {
		return errors.New("warm-digest: not running")
	}
	return nil
}

// warmDigestTarget pairs the warm system with a functional probe that
// fails with the digest of whatever configuration is actually serving —
// so a reload that silently kept stale state would diverge from cold.
func warmDigestTarget() *Target {
	sys := &warmDigestSystem{}
	t := digestTarget()
	t.System = sys
	t.Tests = []suts.Test{{Name: "digest-probe", Run: func() error {
		return fmt.Errorf("probe digest %x", sys.cur)
	}}}
	return t
}

// TestReloadLifecycleMatchesCold is the sutpool subsystem's equivalence
// contract: a campaign driven through warm reloads — including rejected
// reloads and wedge-quarantine-cold-restart recoveries — must produce a
// profile record-for-record identical to the cold start/stop-per-
// experiment engine at every worker count.
func TestReloadLifecycleMatchesCold(t *testing.T) {
	for label, gen := range map[string]Generator{
		"typo-wordview": &typo.Plugin{},
		// Worker k injects k, k+n, … of mixGen's faultload whatever the
		// scheduling, so the wedge scenarios land on warm instances at
		// every worker count.
		"mix-structview": mixGen{},
	} {
		t.Run(label, func(t *testing.T) {
			want, err := (&Campaign{Target: warmDigestTarget(), Generator: gen}).
				RunContext(context.Background())
			if err != nil {
				t.Fatalf("cold reference: %v", err)
			}
			if len(want.Records) == 0 {
				t.Fatal("empty cold reference faultload")
			}
			for _, workers := range []int{1, 4, 8} {
				counters := &sutpool.Counters{}
				reloadTarget := func() *Target {
					t := warmDigestTarget()
					t.System = sutpool.NewInstance(t.System, sutpool.Reload, counters)
					return t
				}
				c := &Campaign{Target: reloadTarget(), Generator: gen}
				var opts []RunOption
				if workers > 1 {
					opts = append(opts,
						WithParallelism(workers),
						WithTargetFactory(func() (*Target, error) { return reloadTarget(), nil }))
				}
				got, err := c.RunContext(context.Background(), opts...)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if canonical(got) != canonical(want) {
					t.Errorf("workers=%d: reload lifecycle diverged from cold\ngot:\n%s\nwant:\n%s",
						workers, canonical(got), canonical(want))
				}
				snap := counters.Snapshot()
				if snap.Reloads == 0 {
					t.Errorf("workers=%d: no reloads — warm path never taken (%s)", workers, snap)
				}
				if snap.Restarts == 0 {
					t.Errorf("workers=%d: no restarts — wedge recovery never exercised (%s)", workers, snap)
				}
				if snap.Restarts > snap.ColdStarts {
					t.Errorf("workers=%d: implausible counters %s", workers, snap)
				}
			}
		})
	}
}

// TestValidateLifecycleSemantics pins the documented divergence of
// validate-only mode: startup-time rejections are detected with
// byte-identical detail, everything the SUT would have accepted becomes
// Ignored (functional probes are skipped — nothing listens), and the
// pre-start pipeline outcomes are untouched.
func TestValidateLifecycleSemantics(t *testing.T) {
	gen := &typo.Plugin{}
	cold, err := (&Campaign{Target: warmDigestTarget(), Generator: gen}).
		RunContext(context.Background())
	if err != nil {
		t.Fatalf("cold reference: %v", err)
	}
	counters := &sutpool.Counters{}
	validate := warmDigestTarget()
	validate.System = sutpool.NewInstance(validate.System, sutpool.Validate, counters)
	got, err := (&Campaign{Target: validate, Generator: gen}).RunContext(context.Background())
	if err != nil {
		t.Fatalf("validate run: %v", err)
	}
	if len(got.Records) != len(cold.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(cold.Records))
	}
	sawDetected, sawIgnored := false, false
	for i, r := range got.Records {
		cr := cold.Records[i]
		if r.ScenarioID != cr.ScenarioID {
			t.Fatalf("record %d: scenario %q, want %q", i, r.ScenarioID, cr.ScenarioID)
		}
		switch cr.Outcome {
		case profile.DetectedAtStartup:
			sawDetected = true
			if r.Outcome != profile.DetectedAtStartup || r.Detail != cr.Detail {
				t.Errorf("%s: validate = (%v, %q), want cold's (%v, %q)",
					r.ScenarioID, r.Outcome, r.Detail, cr.Outcome, cr.Detail)
			}
		case profile.DetectedByTest:
			sawIgnored = true
			if r.Outcome != profile.Ignored {
				t.Errorf("%s: validate outcome = %v, want ignored (probes skipped)",
					r.ScenarioID, r.Outcome)
			}
		default:
			if r.Outcome != cr.Outcome {
				t.Errorf("%s: validate outcome = %v, want cold's %v",
					r.ScenarioID, r.Outcome, cr.Outcome)
			}
		}
	}
	if !sawDetected || !sawIgnored {
		t.Fatalf("faultload did not cover both classes (detected=%v ignored=%v)",
			sawDetected, sawIgnored)
	}
	snap := counters.Snapshot()
	if snap.Validates == 0 {
		t.Errorf("no validates counted (%s)", snap)
	}
	if snap.ColdStarts != 0 || snap.Reloads != 0 {
		t.Errorf("validate mode started the SUT (%s)", snap)
	}
}

// TestFastPathEnabledForBuiltinViews guards the plumbing: the built-in
// views open a campaign on the incremental pipeline, with baseline bytes
// for every configuration file.
func TestFastPathEnabledForBuiltinViews(t *testing.T) {
	for label, gen := range map[string]Generator{
		"word":   &typo.Plugin{},
		"struct": mixGen{},
	} {
		fl, _ := collectFaultload(t, &Campaign{Target: digestTarget(), Generator: gen})
		if len(fl.baseBytes) != fl.sysSet.Len() {
			t.Errorf("%s view: baseBytes covers %d files, want %d",
				label, len(fl.baseBytes), fl.sysSet.Len())
		}
	}
}
