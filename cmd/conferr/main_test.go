package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"conferr"
	"conferr/internal/profile"
)

func runT(args ...string) int {
	return run(context.Background(), args)
}

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestRunUsage(t *testing.T) {
	if got := runT(); got != 2 {
		t.Errorf("no args: exit = %d, want 2", got)
	}
	if got := runT("help"); got != 0 {
		t.Errorf("help: exit = %d, want 0", got)
	}
	if got := runT("bogus"); got != 2 {
		t.Errorf("unknown command: exit = %d, want 2", got)
	}
}

func TestRunTable3Command(t *testing.T) {
	if got := runT("table3"); got != 0 {
		t.Errorf("table3: exit = %d", got)
	}
	if got := runT("table3", "-extended", "-workers", "4"); got != 0 {
		t.Errorf("table3 -extended -workers 4: exit = %d", got)
	}
}

func TestRunEditBenchCommand(t *testing.T) {
	if got := runT("editbench", "-n", "5"); got != 0 {
		t.Errorf("editbench: exit = %d", got)
	}
}

func TestRunListCommand(t *testing.T) {
	out := capture(t, func() {
		if got := runT("list"); got != 0 {
			t.Errorf("list: exit = %d", got)
		}
	})
	for _, want := range []string{"mysql", "postgres", "apache", "nginx", "redisd", "bind", "djbdns", "typo", "semantic"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

// TestRunMatrixCommand drives the suite orchestrator end to end: a 2×2
// matrix with a lazy limit, streamed to a JSONL file, must report every
// cell and produce a file that splits back into one profile per cell.
func TestRunMatrixCommand(t *testing.T) {
	out := t.TempDir() + "/records.jsonl"
	stdout := capture(t, func() {
		if got := runT("matrix", "-systems", "nginx,redisd", "-plugins", "typo,structural",
			"-per-model", "4", "-per-class", "4", "-limit", "10",
			"-workers", "4", "-base-port", "24150", "-stream-out", out); got != 0 {
			t.Errorf("matrix: exit = %d", got)
		}
	})
	for _, cell := range []string{"nginx/typo", "nginx/structural", "redisd/typo", "redisd/structural"} {
		if !strings.Contains(stdout, cell) {
			t.Errorf("matrix output missing cell %s:\n%s", cell, stdout)
		}
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	profs, err := conferr.ReadProfilesJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 4 {
		t.Fatalf("JSONL split into %d profiles, want 4", len(profs))
	}
	for _, p := range profs {
		if len(p.Records) == 0 || len(p.Records) > 10 {
			t.Errorf("%s/%s: %d records, want 1..10 (limit)", p.System, p.Generator, len(p.Records))
		}
	}

	// The whole-pair matrix must skip incompatible cells rather than fail.
	if got := runT("matrix", "-systems", "mysql", "-plugins", "semantic"); got != 1 {
		t.Errorf("all-skipped matrix: exit = %d, want 1", got)
	}
}

func TestRunCampaignCommand(t *testing.T) {
	if got := runT("campaign", "-system", "djbdns", "-plugin", "semantic"); got != 0 {
		t.Errorf("campaign semantic: exit = %d", got)
	}
	if got := runT("campaign", "-system", "postgres", "-plugin", "typo", "-per-model", "3", "-records"); got != 0 {
		t.Errorf("campaign typo: exit = %d", got)
	}
}

// TestRunCampaignWorkersDeterministic is the CLI form of the acceptance
// criterion: -workers 8 must print the identical summary (same scenario
// IDs, same detection counts) as -workers 1.
func TestRunCampaignWorkersDeterministic(t *testing.T) {
	summary := func(workers string) string {
		return capture(t, func() {
			if got := runT("campaign", "-system", "mysql", "-plugin", "typo",
				"-per-model", "10", "-records", "-workers", workers); got != 0 {
				t.Errorf("workers=%s: exit = %d", workers, got)
			}
		})
	}
	seq := summary("1")
	par := summary("8")
	// The only allowed difference is the workers=N banner line.
	canon := func(s string) string {
		lines := strings.Split(s, "\n")
		var keep []string
		for _, l := range lines {
			if strings.HasPrefix(l, "system=") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	if canon(seq) != canon(par) {
		t.Errorf("parallel output diverged from sequential\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
}

func TestRunCampaignErrors(t *testing.T) {
	cases := [][]string{
		{"campaign"},                    // missing system
		{"campaign", "-system", "nope"}, // unknown system
		{"campaign", "-system", "mysql", "-plugin", "nope"},     // unknown plugin
		{"campaign", "-system", "mysql", "-plugin", "semantic"}, // wrong pairing
	}
	for _, args := range cases {
		if got := runT(args...); got != 1 {
			t.Errorf("run(%v) = %d, want 1", args, got)
		}
	}
}

// TestRunCampaignNewTargets drives the two extension systems end-to-end
// through the CLI: a nested-block nginx campaign and a redis campaign on
// the reused kv codec, via the -target alias for -system.
func TestRunCampaignNewTargets(t *testing.T) {
	if got := runT("campaign", "-target", "nginx", "-plugin", "typo", "-per-model", "3", "-workers", "4"); got != 0 {
		t.Errorf("campaign -target nginx: exit = %d", got)
	}
	if got := runT("campaign", "-target", "redisd", "-plugin", "typo", "-per-model", "3", "-workers", "4"); got != 0 {
		t.Errorf("campaign -target redisd: exit = %d", got)
	}
}

func TestRegisteredTargetsResolve(t *testing.T) {
	for _, sys := range []string{"mysql", "postgres", "apache", "nginx", "redisd", "bind", "djbdns"} {
		factory, err := conferr.LookupTarget(sys)
		if err != nil {
			t.Errorf("LookupTarget(%s): %v", sys, err)
			continue
		}
		if _, err := factory(0); err != nil {
			t.Errorf("factory(%s): %v", sys, err)
		}
	}
}

func TestRunExperimentCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiments in -short mode")
	}
	cases := [][]string{
		{"table1", "-workers", "4"},
		{"table2", "-n", "2"},
		{"figure3", "-n", "3", "-workers", "4"},
	}
	for _, args := range cases {
		if got := runT(args...); got != 0 {
			t.Errorf("run(%v) = %d, want 0", args, got)
		}
	}
}

func TestRunCampaignJSONOutput(t *testing.T) {
	out := t.TempDir() + "/profile.json"
	if got := runT("campaign", "-system", "bind", "-plugin", "semantic", "-json", out); got != 0 {
		t.Fatalf("exit = %d", got)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prof, err := conferr.ReadProfileJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if prof.System != "bind-sim" || len(prof.Records) == 0 {
		t.Errorf("profile = %s with %d records", prof.System, len(prof.Records))
	}
}

func TestRunCompareCommand(t *testing.T) {
	if got := runT("compare", "-n", "4"); got != 0 {
		t.Errorf("compare: exit = %d", got)
	}
}

// TestRunMatrixStreamStdout: `matrix -stream-out -` must put records —
// and nothing else — on stdout, with the summary table diverted to
// stderr.
func TestRunMatrixStreamStdout(t *testing.T) {
	stdout := capture(t, func() {
		if got := runT("matrix", "-systems", "nginx", "-plugins", "typo",
			"-per-model", "4", "-limit", "8", "-workers", "4",
			"-base-port", "24160", "-no-duration", "-stream-out", "-"); got != 0 {
			t.Errorf("matrix -stream-out -: exit = %d", got)
		}
	})
	if strings.Contains(stdout, "campaign") || strings.Contains(stdout, "records streamed") {
		t.Errorf("summary leaked into the record stream:\n%s", stdout)
	}
	profs, err := conferr.ReadProfilesJSONL(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("stdout is not clean JSONL: %v", err)
	}
	if len(profs) != 1 || len(profs[0].Records) == 0 || len(profs[0].Records) > 8 {
		t.Fatalf("streamed profiles = %+v, want one nginx/typo profile with 1..8 records", profs)
	}
}

// TestConvertRefusesSameFile: converting a profile onto itself, under
// its own name or any path resolving to it, must fail before the output
// is created and leave the input's bytes untouched, in both formats.
func TestConvertRefusesSameFile(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "p.jsonl")
	rec := profile.Record{ScenarioID: "s/0", Class: "c", Outcome: profile.DetectedAtStartup, Detail: "bad"}
	if err := os.WriteFile(jsonl, profile.AppendJSONLRecord(nil, "sys", "gen", 0, rec), 0o644); err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(dir, "q.cprof")
	if got := runT("convert", jsonl, cp); got != 0 {
		t.Fatalf("convert to cprof: exit = %d", got)
	}
	link := filepath.Join(dir, "link.jsonl")
	if err := os.Symlink(jsonl, link); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{jsonl, jsonl}, {jsonl, dir + "/./p.jsonl"}, {jsonl, link}, {cp, cp},
	} {
		want, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := runT("convert", pair[0], pair[1]); got == 0 {
			t.Errorf("convert %s %s: exit 0, want a refusal", pair[0], pair[1])
		}
		if got, err := os.ReadFile(pair[0]); err != nil || !bytes.Equal(got, want) {
			t.Errorf("convert %s %s changed the input: %d bytes, want %d (%v)",
				pair[0], pair[1], len(got), len(want), err)
		}
	}
}

// TestRunMatrixCprofConvertReport drives the compact pipeline end to
// end: matrix streams a cell to .cprof and (second run) to .jsonl, the
// two must agree byte-for-byte after conversion, and report/convert
// consume both formats.
func TestRunMatrixCprofConvertReport(t *testing.T) {
	dir := t.TempDir()
	cprofOut := dir + "/records.cprof"
	jsonlOut := dir + "/records.jsonl"
	args := func(out string) []string {
		return []string{"matrix", "-systems", "nginx", "-plugins", "typo",
			"-per-model", "4", "-workers", "4", "-base-port", "24161",
			"-no-duration", "-stream-out", out}
	}
	if got := runT(args(cprofOut)...); got != 0 {
		t.Fatalf("matrix -stream-out .cprof: exit = %d", got)
	}
	if got := runT(args(jsonlOut)...); got != 0 {
		t.Fatalf("matrix -stream-out .jsonl: exit = %d", got)
	}

	// convert .cprof → JSONL must reproduce the directly streamed bytes.
	converted := dir + "/converted.jsonl"
	if got := runT("convert", cprofOut, converted); got != 0 {
		t.Fatalf("convert: exit = %d", got)
	}
	want, err := os.ReadFile(jsonlOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(converted)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || string(got) != string(want) {
		t.Fatalf("converted JSONL diverges from direct stream (%d vs %d bytes)", len(got), len(want))
	}

	// And back: JSONL → .cprof → JSONL is a fixed point.
	recprof := dir + "/re.cprof"
	rejsonl := dir + "/re.jsonl"
	if got := runT("convert", jsonlOut, recprof); got != 0 {
		t.Fatalf("convert to cprof: exit = %d", got)
	}
	if got := runT("convert", recprof, rejsonl); got != 0 {
		t.Fatalf("convert back: exit = %d", got)
	}
	round, err := os.ReadFile(rejsonl)
	if err != nil {
		t.Fatal(err)
	}
	if string(round) != string(want) {
		t.Fatal("JSONL→cprof→JSONL is not an identity")
	}

	// report reads both formats and prints the same shapes.
	for _, in := range []string{cprofOut, jsonlOut} {
		out := capture(t, func() {
			if got := runT("report", in); got != 0 {
				t.Errorf("report %s: exit = %d", in, got)
			}
		})
		for _, wantS := range []string{"Outcome summary", "Resilience scorecard", "Per-class outcomes"} {
			if !strings.Contains(out, wantS) {
				t.Errorf("report %s missing %q:\n%s", in, wantS, out)
			}
		}
	}

	// The diff of a campaign against itself is regression-free; the gate
	// passes.
	if got := runT("report", "-diff", "-fail-regress", "0.1", cprofOut, jsonlOut); got != 0 {
		t.Errorf("self-diff tripped the regression gate: exit = %d", got)
	}
}

// TestDistResumeNeedsCheckpoint: `dist -resume` with nothing to resume
// from — no checkpoint path, or a tally run, which keeps no checkpoint —
// is refused before any worker is dialed, instead of silently running
// the whole campaign fresh.
func TestDistResumeNeedsCheckpoint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conn.Close()
		}
	}()
	base := []string{"-workers", ln.Addr().String(), "-system", "nginx", "-limit", "5", "-retries", "1", "-quiet", "-resume"}
	for _, extra := range [][]string{
		nil,
		{"-tally", "-checkpoint", filepath.Join(t.TempDir(), "run.ckpt")},
	} {
		err := cmdDist(context.Background(), append(base, extra...))
		if err == nil || !strings.Contains(err.Error(), "-resume needs a checkpoint") {
			t.Errorf("dist %v: err = %v, want a -resume refusal", extra, err)
		}
	}
	if n := accepted.Load(); n != 0 {
		t.Fatalf("refused runs opened %d worker connections", n)
	}
}
