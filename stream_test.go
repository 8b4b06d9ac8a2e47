package conferr

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"conferr/internal/dist"
	"conferr/internal/profile"
)

// TestStreamingEquivalenceAllRegisteredTargets is the facade half of the
// streaming equivalence contract: for every target in the registry, the
// streaming runner (lazy faultload, bounded dispatch, ordered sink flush)
// must produce a record stream byte-identical to Runner.Run's in-memory
// profile, at workers 1 and 4.
func TestStreamingEquivalenceAllRegisteredTargets(t *testing.T) {
	registerTestEntries(t)
	for i, system := range RegisteredTargets() {
		// A fixed primary port per subtest: the faultload typos the port
		// digits, so reruns must embed identical ports to produce
		// identical profiles.
		port := 23960 + i
		t.Run(system, func(t *testing.T) {
			mkRunner := func() *Runner {
				r, err := NewRunnerFor(system, "typo", GeneratorOptions{Seed: DefaultSeed, PerModel: 6})
				if err != nil {
					t.Fatal(err)
				}
				r.Port = port
				return r
			}
			want, err := mkRunner().Run(context.Background())
			if err != nil {
				t.Fatalf("materialized: %v", err)
			}
			// Some pairings (djbdns's tinydns data under the word view)
			// legitimately yield no typo scenarios; the contract is
			// equality, including equality of emptiness.
			if len(want.Records) == 0 {
				t.Logf("%s: empty typo faultload", system)
			}
			for _, workers := range []int{1, 4} {
				prof := &Profile{System: want.System, Generator: want.Generator}
				n, err := mkRunner().RunStream(context.Background(),
					&MemorySink{Profile: prof}, WithParallelism(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if n != len(want.Records) {
					t.Errorf("workers=%d: streamed %d records, want %d", workers, n, len(want.Records))
				}
				if canonicalProfile(prof) != canonicalProfile(want) {
					t.Errorf("workers=%d: streaming diverged from materialized:\n%s",
						workers, firstDiff(canonicalProfile(prof), canonicalProfile(want)))
				}
			}
		})
	}
}

// TestRunMatrixStreamsJSONL runs a 2-system × 2-plugin suite with every
// cell streaming to one shared JSONL file, then splits the file back into
// per-campaign profiles and checks them against solo runs.
func TestRunMatrixStreamsJSONL(t *testing.T) {
	entries, skipped, err := MatrixEntries(
		[]string{"postgres", "redisd"},
		[]string{"typo", "structural"},
		GeneratorOptions{Seed: DefaultSeed, PerModel: 4, PerClass: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(entries) != 4 {
		t.Fatalf("entries = %d, skipped = %v", len(entries), skipped)
	}
	// Fixed primary ports so the solo comparison runs below inject the
	// byte-identical faultloads.
	for i := range entries {
		entries[i].Port = 23975 + i
	}

	var buf bytes.Buffer
	lw := NewLockedWriter(&buf)
	res, err := RunMatrix(context.Background(), entries, MatrixOptions{
		Workers: 4,
		SinkFor: func(e MatrixEntry) Sink { return NewJSONLSink(lw, e.System, e.Plugin) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(res.Results))
	}
	for _, cr := range res.Results {
		if cr.Err != nil {
			t.Fatalf("campaign %s: %v", cr.Name, cr.Err)
		}
		if cr.Profile != nil {
			t.Errorf("campaign %s retained an in-memory profile despite its sink", cr.Name)
		}
		if cr.Records == 0 || cr.Summary.Injected == 0 {
			t.Errorf("campaign %s: records=%d injected=%d", cr.Name, cr.Records, cr.Summary.Injected)
		}
	}

	profs := splitJSONL(t, &buf)
	if len(profs) != 4 {
		t.Fatalf("JSONL split into %d profiles, want 4", len(profs))
	}
	// Each JSONL profile must match a solo materialized run of its cell.
	byKey := map[string]*Profile{}
	for _, p := range profs {
		byKey[p.System+"/"+p.Generator] = p
	}
	for _, e := range entries {
		got := byKey[e.System+"/"+e.Plugin]
		if got == nil {
			t.Fatalf("no JSONL profile for %s/%s", e.System, e.Plugin)
		}
		r, err := NewRunnerFor(e.System, e.Plugin, e.Options)
		if err != nil {
			t.Fatal(err)
		}
		r.Port = e.Port
		want, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Identity fields differ (registry name vs simulator name); compare
		// the records.
		got.System, got.Generator = want.System, want.Generator
		if canonicalProfile(got) != canonicalProfile(want) {
			t.Errorf("%s/%s: JSONL profile diverged from solo run:\n%s",
				e.System, e.Plugin, firstDiff(canonicalProfile(got), canonicalProfile(want)))
		}
	}
}

// TestMatrixEntriesSkipsIncompatiblePairs: the semantic plugin only pairs
// with DNS targets; the matrix must skip, not fail.
func TestMatrixEntriesSkipsIncompatiblePairs(t *testing.T) {
	entries, skipped, err := MatrixEntries(
		[]string{"mysql", "bind"}, []string{"semantic"}, GeneratorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].System != "bind" {
		t.Errorf("entries = %+v, want only bind/semantic", entries)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "mysql/semantic") {
		t.Errorf("skipped = %v, want mysql/semantic", skipped)
	}
	if _, _, err := MatrixEntries([]string{"nope"}, []string{"typo"}, GeneratorOptions{}); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestRunMatrixRoundsAndLimit: the scale options compose — rounds multiply
// the faultload with unique IDs, the limit caps it lazily.
func TestRunMatrixRoundsAndLimit(t *testing.T) {
	entries := []MatrixEntry{{System: "postgres", Plugin: "typo",
		Options: GeneratorOptions{Seed: 1, PerModel: 3}}}
	res, err := RunMatrix(context.Background(), entries, MatrixOptions{
		Workers: 2,
		Rounds:  50,
		Limit:   120,
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Results[0]
	if cr.Records != 120 {
		t.Fatalf("records = %d, want the 120-cap", cr.Records)
	}
	ids := map[string]bool{}
	for _, rec := range cr.Profile.Records {
		if ids[rec.ScenarioID] {
			t.Fatalf("duplicate scenario ID %s across rounds", rec.ScenarioID)
		}
		ids[rec.ScenarioID] = true
	}
	if !strings.HasPrefix(cr.Profile.Records[0].ScenarioID, "r000/") {
		t.Errorf("first record %s lacks round prefix", cr.Profile.Records[0].ScenarioID)
	}
}

// TestRunMatrixRejectsPortPastRange: a base port that pushes a cell past
// 65535 fails the matrix before any experiment runs. Built anyway, that
// cell would report every scenario as detected, each config naming the
// invalid port.
func TestRunMatrixRejectsPortPastRange(t *testing.T) {
	entries := []MatrixEntry{
		{System: "nginx", Plugin: "structural", Options: GeneratorOptions{Seed: 1}},
		{System: "redisd", Plugin: "structural", Options: GeneratorOptions{Seed: 1}},
	}
	var buf bytes.Buffer
	lw := NewLockedWriter(&buf)
	_, err := RunMatrix(context.Background(), entries, MatrixOptions{
		BasePort: 65535,
		Limit:    3,
		SinkFor:  func(e MatrixEntry) Sink { return NewJSONLSink(lw, e.System, e.Plugin) },
	})
	if err == nil || !strings.Contains(err.Error(), "redisd/structural") || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("err = %v, want a refusal naming redisd/structural and port 65536", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused matrix wrote records:\n%s", buf.Bytes())
	}
}

// TestCellRejectsNegativeSettings: every count and deadline for which
// zero means "off" refuses a negative value, naming the cell and the
// field, instead of silently treating it as "off".
func TestCellRejectsNegativeSettings(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*dist.CampaignSpec)
		want  string
	}{
		{"PerModel", func(s *dist.CampaignSpec) { s.PerModel = -1 }, "(-1)"},
		{"PerDirective", func(s *dist.CampaignSpec) { s.PerDirective = -2 }, "(-2)"},
		{"PerClass", func(s *dist.CampaignSpec) { s.PerClass = -3 }, "(-3)"},
		{"Rounds", func(s *dist.CampaignSpec) { s.Rounds = -4 }, "(-4)"},
		{"Sample", func(s *dist.CampaignSpec) { s.Sample = -5 }, "(-5)"},
		{"Limit", func(s *dist.CampaignSpec) { s.Limit = -5 }, "(-5)"},
		{"ExperimentTimeout", func(s *dist.CampaignSpec) { s.ExperimentTimeout = -time.Second }, "(-1s)"},
		{"PhaseTimeout", func(s *dist.CampaignSpec) { s.PhaseTimeout = -1500 * time.Millisecond }, "(-1.5s)"},
	} {
		spec := dist.CampaignSpec{System: "nginx", Plugin: "typo", Seed: 1}
		tc.set(&spec)
		_, err := DistCampaign(spec)
		if err == nil {
			t.Errorf("%s: negative value accepted", tc.field)
			continue
		}
		for _, want := range []string{"nginx/typo", tc.field, tc.want} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want it to name %q", tc.field, err, want)
			}
		}
	}
	if _, err := DistCampaign(dist.CampaignSpec{System: "nginx", Plugin: "typo", Seed: 1}); err != nil {
		t.Fatalf("zero settings refused: %v", err)
	}
}

// TestRunnerRejectsNegativeCounts: a Runner built from names refuses a
// negative generator count as the matrix cell does, instead of running
// the whole faultload, and a matrix refuses it once instead of skipping
// every pair.
func TestRunnerRejectsNegativeCounts(t *testing.T) {
	opts := GeneratorOptions{Seed: DefaultSeed, PerModel: -3}
	if _, err := NewRunnerFor("nginx", "typo", opts); err == nil ||
		!strings.Contains(err.Error(), "PerModel") || !strings.Contains(err.Error(), "(-3)") {
		t.Errorf("NewRunnerFor: err = %v, want PerModel refused", err)
	}
	entries, skipped, err := MatrixEntries([]string{"nginx", "apache"}, []string{"typo"}, opts)
	if err == nil || !strings.Contains(err.Error(), "PerModel") {
		t.Errorf("MatrixEntries: %d entries, skipped %v, err %v; want PerModel refused", len(entries), skipped, err)
	}
}

// TestTallySinkMatchesProfileOnStream: the O(1)-memory summary of a
// streamed campaign equals the materialized profile's Summarize.
func TestTallySinkMatchesProfileOnStream(t *testing.T) {
	r, err := NewRunnerFor("apache", "typo", GeneratorOptions{Seed: DefaultSeed, PerModel: 10})
	if err != nil {
		t.Fatal(err)
	}
	r.Port = 23985
	want, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tally := &TallySink{}
	r2, err := NewRunnerFor("apache", "typo", GeneratorOptions{Seed: DefaultSeed, PerModel: 10})
	if err != nil {
		t.Fatal(err)
	}
	r2.Port = 23985
	if _, err := r2.RunStream(context.Background(), tally, WithParallelism(4)); err != nil {
		t.Fatal(err)
	}
	got := tally.Summary()
	wantSum := want.Summarize()
	got.System = wantSum.System
	if got != wantSum {
		t.Errorf("tally = %+v, want %+v", got, wantSum)
	}
}

var _ Sink = (*profile.JSONLSink)(nil)

// RunStream executes the campaign with the faultload pulled lazily from
// the generator and every record flushed to sink in scenario order as it
// completes — no scenario slice, no in-memory profile, so campaign size is
// bounded by the stream rather than by RAM. It returns the number of
// records flushed; see Campaign.RunStream for the full contract.
func (r *Runner) RunStream(ctx context.Context, sink Sink, opts ...RunOption) (int, error) {
	sc, err := NewSuiteCampaignLifecycle(r.Generator.Name(), r.Factory, r.Port, r.Generator, r.Lifecycle, r.PoolCounters)
	if err != nil {
		return 0, err
	}
	return sc.Campaign.RunStream(ctx, sink, append(sc.Options, opts...)...)
}

// splitJSONL splits a JSONL stream into one profile per campaign, in
// order of first appearance. Each campaign's lines must arrive in
// sequence order, as an ordered sink writes them.
func splitJSONL(t *testing.T, r io.Reader) []*Profile {
	t.Helper()
	var out []*Profile
	byKey := map[string]*Profile{}
	err := profile.ScanJSONL(r, func(e JSONLEntry) error {
		key := e.System + "/" + e.Generator
		p := byKey[key]
		if p == nil {
			p = &Profile{System: e.System, Generator: e.Generator}
			byKey[key] = p
			out = append(out, p)
		}
		if e.Seq != len(p.Records) {
			return fmt.Errorf("%s: seq %d at position %d", key, e.Seq, len(p.Records))
		}
		p.Add(e.Record)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
