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
func capture(t *testing.T, fn func()) string { return captureFile(t, &os.Stdout, fn) }

// captureFile runs fn with *f (os.Stdout or os.Stderr) redirected and
// returns what it printed.
func captureFile(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	fn()
	w.Close()
	*f = old
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

// TestNegativeNRefused: a negative count or duration fails with exit 1
// and an error naming the flag, before anything runs or prints; without
// the check table2 printed 100% satisfied, editbench 0%, figure3 and
// compare ran the uncapped faultload, table3 ran at GOMAXPROCS workers
// and dist went on to dial with its values defaulted.
func TestNegativeNRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"table2", "-n", "-1"}, "-n"},
		{[]string{"figure3", "-n", "-1"}, "-n"},
		{[]string{"editbench", "-n", "-2"}, "-n"},
		{[]string{"compare", "-n", "-1"}, "-n"},
		{[]string{"table3", "-workers", "-3"}, "-workers"},
		{[]string{"report", "-workers", "-1", "x.jsonl"}, "-workers"},
		{[]string{"dist", "-system", "nginx", "-shards", "-4"}, "-shards"},
		{[]string{"dist", "-system", "nginx", "-retries", "-1"}, "-retries"},
		{[]string{"dist", "-system", "nginx", "-stall-timeout", "-1s"}, "-stall-timeout"},
		{[]string{"dist", "-system", "nginx", "-dial-timeout", "-1s"}, "-dial-timeout"},
	} {
		var code int
		var stdout string
		stderr := captureFile(t, &os.Stderr, func() {
			stdout = capture(t, func() { code = runT(tc.args...) })
		})
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.flag+" is negative") {
			t.Errorf("%v: exit = %d, stdout %q, stderr %q; want exit 1 naming %s", tc.args, code, stdout, stderr, tc.flag)
		}
	}
	// The library refuses them too, naming its parameter.
	ctx := context.Background()
	if _, err := conferr.RunTable2Ctx(ctx, 1, -1, 1); err == nil || !strings.Contains(err.Error(), "perClass is negative") {
		t.Errorf("RunTable2Ctx(-1): %v", err)
	}
	if _, err := conferr.RunFigure3Ctx(ctx, 1, -1, 1); err == nil || !strings.Contains(err.Error(), "perDirective is negative") {
		t.Errorf("RunFigure3Ctx(-1): %v", err)
	}
	if _, err := conferr.RunEditBenchmarkCtx(ctx, 1, -2, 1); err == nil || !strings.Contains(err.Error(), "perEdit is negative") {
		t.Errorf("RunEditBenchmarkCtx(-2): %v", err)
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
	counts, err := countJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 4 {
		t.Fatalf("JSONL holds %d campaigns, want 4", len(counts))
	}
	for cell, n := range counts {
		if n == 0 || n > 10 {
			t.Errorf("%s: %d records, want 1..10 (limit)", cell, n)
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
	out := t.TempDir() + "/profile.jsonl"
	if got := runT("campaign", "-system", "bind", "-plugin", "semantic", "-out", out); got != 0 {
		t.Fatalf("exit = %d", got)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	if err := profile.ScanJSONL(f, func(e profile.JSONLEntry) error {
		if e.System != "bind-sim" || e.Generator != "semantic-dns" || e.Seq != n {
			t.Errorf("entry %d = %s/%s seq %d", n, e.System, e.Generator, e.Seq)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("profile has no records")
	}
}

// TestCampaignOutUnwritableFailsFirst: `campaign -out` opens its output
// before the run, so an unwritable path fails before any experiment and
// prints no summary, with an error that names the path and no format
// prefix.
func TestCampaignOutUnwritableFailsFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "x.jsonl")
	var err error
	stdout := capture(t, func() {
		err = cmdCampaign(context.Background(), []string{"-system", "bind", "-plugin", "semantic", "-out", path})
	})
	if err == nil || !strings.Contains(err.Error(), path) || strings.Contains(err.Error(), "cprof:") {
		t.Fatalf("err = %v, want the open error naming %s without a cprof: prefix", err, path)
	}
	if stdout != "" {
		t.Fatalf("the failed campaign printed:\n%s", stdout)
	}
}

// TestCampaignOutReadBack: what `campaign -out` writes, in either
// format, is a profile report and convert read, and both formats hold
// the same records.
func TestCampaignOutReadBack(t *testing.T) {
	dir := t.TempDir()
	var converted []string
	for _, name := range []string{"p.jsonl", "p.cprof"} {
		path := filepath.Join(dir, name)
		if got := runT("campaign", "-system", "bind", "-plugin", "semantic", "-out", path); got != 0 {
			t.Fatalf("campaign -out %s: exit = %d", name, got)
		}
		report := capture(t, func() {
			if got := runT("report", path); got != 0 {
				t.Errorf("report %s: exit = %d", name, got)
			}
		})
		if !strings.Contains(report, "Outcome summary") {
			t.Errorf("report %s printed no summary:\n%s", name, report)
		}
		back := path + ".back.jsonl"
		if got := runT("convert", "-no-duration", path, back); got != 0 {
			t.Fatalf("convert %s: exit = %d", name, got)
		}
		data, err := os.ReadFile(back)
		if err != nil {
			t.Fatal(err)
		}
		converted = append(converted, string(data))
	}
	if converted[0] == "" || converted[0] != converted[1] {
		t.Fatalf("the JSONL and cprof profiles convert to different records (%d vs %d bytes)",
			len(converted[0]), len(converted[1]))
	}
}

func TestRunCompareCommand(t *testing.T) {
	if got := runT("compare", "-n", "4"); got != 0 {
		t.Errorf("compare: exit = %d", got)
	}
}

// TestCompareNZeroIsDefault: `compare -n 0` runs the default faultload,
// as -n 0 does for every other artifact command. Passed on, 0 reached
// TypoOptions.PerDirective, where it means uncapped: 708 typos instead
// of 189.
func TestCompareNZeroIsDefault(t *testing.T) {
	var codeDef, codeZero int
	def := capture(t, func() { codeDef = runT("compare") })
	zero := capture(t, func() { codeZero = runT("compare", "-n", "0") })
	if codeDef != 0 || codeZero != 0 {
		t.Fatalf("exit codes: compare %d, compare -n 0 %d", codeDef, codeZero)
	}
	if zero != def {
		t.Errorf("compare -n 0 printed\n%s\nwant what compare prints\n%s", zero, def)
	}
	if !strings.Contains(def, "189 (100%)") {
		t.Errorf("compare printed\n%s\nwant 189 injected typos", def)
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
	counts, err := countJSONL(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("stdout is not clean JSONL: %v", err)
	}
	if n := counts["nginx/typo"]; len(counts) != 1 || n == 0 || n > 8 {
		t.Fatalf("streamed campaigns = %v, want one nginx/typo campaign with 1..8 records", counts)
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
// from — no -out, which is the run's checkpoint, whether or not it is a
// tally run — is refused before any worker is dialed, instead of
// silently running the whole campaign fresh; so is a tally run given an
// -out it would never write.
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
	base := []string{"-workers", ln.Addr().String(), "-system", "nginx", "-limit", "5", "-retries", "1", "-quiet"}
	for _, c := range []struct {
		extra []string
		want  string
	}{
		{[]string{"-resume"}, "resume needs an output file"},
		{[]string{"-resume", "-tally"}, "resume needs an output file"},
		{[]string{"-tally", "-out", filepath.Join(t.TempDir(), "x.jsonl")}, "tally run sends no records"},
	} {
		err := cmdDist(context.Background(), append(base, c.extra...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("dist %v: err = %v, want %q", c.extra, err, c.want)
		}
	}
	if n := accepted.Load(); n != 0 {
		t.Fatalf("refused runs opened %d worker connections", n)
	}
}

// countJSONL counts a JSONL profile's records per system/generator.
func countJSONL(r io.Reader) (map[string]int, error) {
	counts := map[string]int{}
	err := profile.ScanJSONL(r, func(e profile.JSONLEntry) error {
		counts[e.System+"/"+e.Generator]++
		return nil
	})
	return counts, err
}
