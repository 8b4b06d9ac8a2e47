package profile

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// scanJSONLReference is ScanJSONL as one goroutine reading line by line,
// the way it read before decoding fanned out: the oracle the fan-out
// scan must match, entry for entry and error for error.
func scanJSONLReference(r io.Reader, fn func(JSONLEntry) error) error {
	br := bufio.NewReaderSize(r, 64*1024)
	var (
		off    int64 // file offset of the line being read
		lineNo int
		long   []byte // spill for lines longer than the read buffer
	)
	for {
		chunk, rerr := ReadJSONLLine(br, &long)
		if rerr == ErrJSONLLineTooLong {
			return fmt.Errorf("profile: JSONL line %d (byte offset %d): %w", lineNo+1, off, rerr)
		}
		if len(chunk) > 0 {
			lineNo++
			lineOff := off
			off += int64(len(chunk))
			line := chunk
			if n := len(line); n > 0 && line[n-1] == '\n' {
				line = line[:n-1]
			}
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			if len(line) > 0 {
				e, perr := ParseJSONLLine(line)
				if perr != nil {
					return fmt.Errorf("profile: JSONL line %d (byte offset %d): %w", lineNo, lineOff, perr)
				}
				if err := fn(e); err != nil {
					return err
				}
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return fmt.Errorf("profile: reading JSONL: %w", rerr)
		}
	}
}

// withRunBytes sets the size ScanJSONL cuts its runs at for one test.
func withRunBytes(t testing.TB, n int) {
	old := jsonlRunBytes
	jsonlRunBytes = n
	t.Cleanup(func() { jsonlRunBytes = old })
}

// scanned is what one scan delivered: its entries and its error text.
type scanned struct {
	entries []JSONLEntry
	err     string
}

func scanWith(scan func(io.Reader, func(JSONLEntry) error) error, data []byte) scanned {
	var s scanned
	err := scan(bytes.NewReader(data), func(e JSONLEntry) error {
		s.entries = append(s.entries, e)
		return nil
	})
	if err != nil {
		s.err = err.Error()
	}
	return s
}

// sameAsReference fails t unless ScanJSONL delivers over data exactly
// what the reference does.
func sameAsReference(t *testing.T, name string, data []byte) {
	t.Helper()
	got, want := scanWith(ScanJSONL, data), scanWith(scanJSONLReference, data)
	if got.err != want.err {
		t.Errorf("%s: error %q, reference %q", name, got.err, want.err)
	}
	if !slices.Equal(got.entries, want.entries) {
		t.Errorf("%s: %d entries, reference %d (or they differ)", name, len(got.entries), len(want.entries))
	}
}

// jsonlLines renders n records of one campaign as canonical lines,
// without newlines.
func jsonlLines(n int) [][]byte {
	lines := make([][]byte, n)
	for i := range lines {
		r := Record{
			ScenarioID:  fmt.Sprintf("typo/omission/nginx.conf#%d.1/%d", i%40, i),
			Class:       "typo/omission",
			Description: fmt.Sprintf("omit %q", 'a'+rune(i%26)),
			Outcome:     Outcome(i%int(NotApplicable) + 1),
			Detail:      []string{"", "config parse error", "t: \"fail\""}[i%3],
			Duration:    time.Duration(i) * time.Microsecond,
		}
		lines[i] = AppendJSONLRecord(nil, "nginx", "typo", i, r)
		lines[i] = lines[i][:len(lines[i])-1]
	}
	return lines
}

// TestScanJSONLMatchesReference: at every run size, from one byte (each
// line longer than a run) to the default, the fan-out scan delivers the
// reference's entries and error on line-ending, blank-line and
// malformed-line shapes.
func TestScanJSONLMatchesReference(t *testing.T) {
	lines := jsonlLines(300)
	join := func(sep string, ls [][]byte) []byte { return append(bytes.Join(ls, []byte(sep)), sep...) }
	bad := slices.Clone(lines)
	bad[137] = []byte(`{not json}`)
	long := slices.Clone(lines)
	long[50] = AppendJSONLRecord(nil, "nginx", "typo", 50,
		Record{ScenarioID: "x", Class: "c", Description: strings.Repeat("long ", 80<<10), Outcome: Ignored})
	long[50] = long[50][:len(long[50])-1]
	cases := map[string][]byte{
		"empty":               nil,
		"LF":                  join("\n", lines),
		"CRLF":                join("\r\n", lines),
		"blank lines":         bytes.ReplaceAll(join("\n", lines), []byte("\n{"), []byte("\n\n\r\n{")),
		"only blank lines":    []byte("\n\r\n\n"),
		"unterminated last":   bytes.Join(lines, []byte("\n")),
		"unterminated bad":    append(join("\n", lines[:10]), `{"system"`...),
		"bad line 138":        join("\n", bad),
		"bad line, CRLF":      join("\r\n", bad),
		"line past 256 KiB":   join("\n", long),
		"lone CR at the end":  append(join("\n", lines[:3]), '\r'),
		"double CR":           join("\r\r\n", lines[:5]),
		"NUL before newline":  append(join("\n", lines[:5]), "\x00\n"...),
		"newline-free ending": append(join("\n", lines[:5]), strings.Repeat("z", 3000)...),
	}
	for _, run := range []int{jsonlRunBytes, 1, 64, 1000, 4096} {
		withRunBytes(t, run)
		for name, data := range cases {
			sameAsReference(t, fmt.Sprintf("run %d, %s", run, name), data)
		}
	}
}

// TestScanJSONLLineBound: a line of more than 16 MiB, newline included,
// fails with the reference's error, naming its number and offset; one
// byte shorter, it is parsed (and here rejected as JSON).
func TestScanJSONLLineBound(t *testing.T) {
	head := jsonlLines(3)
	prefix := append(bytes.Join(head, []byte("\n")), '\n')
	for _, n := range []int{maxJSONLLine - 1, maxJSONLLine, maxJSONLLine + 5000} {
		data := append(append(slices.Clip(prefix), bytes.Repeat([]byte{'x'}, n)...), '\n')
		data = append(data, head[0]...)
		for _, run := range []int{jsonlRunBytes, 4096} {
			withRunBytes(t, run)
			sameAsReference(t, fmt.Sprintf("line of %d bytes, run %d", n, run), data)
		}
	}
	// The bound holds for an unterminated last line too.
	data := append(slices.Clip(prefix), bytes.Repeat([]byte{'x'}, maxJSONLLine+1)...)
	sameAsReference(t, "unterminated line past the bound", data)
	if err := ScanJSONL(bytes.NewReader(data), func(JSONLEntry) error { return nil }); !errors.Is(err, ErrJSONLLineTooLong) {
		t.Errorf("error %v, want ErrJSONLLineTooLong", err)
	}
}

// failingReader returns data, then err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestScanJSONLReadError: a read error ends the scan after the lines
// read before it, with the reference's wording.
func TestScanJSONLReadError(t *testing.T) {
	lines := jsonlLines(50)
	data := append(bytes.Join(lines, []byte("\n")), '\n')
	for _, cut := range []int{len(data), len(data) - 7} {
		var got, want scanned
		for _, s := range []struct {
			out  *scanned
			scan func(io.Reader, func(JSONLEntry) error) error
		}{{&got, ScanJSONL}, {&want, scanJSONLReference}} {
			err := s.scan(&failingReader{data: data[:cut], err: errors.New("disk on fire")}, func(e JSONLEntry) error {
				s.out.entries = append(s.out.entries, e)
				return nil
			})
			s.out.err = fmt.Sprint(err)
		}
		if got.err != want.err || !slices.Equal(got.entries, want.entries) {
			t.Errorf("cut %d: %d entries and %q, reference %d and %q", cut, len(got.entries), got.err, len(want.entries), want.err)
		}
	}
}

// checkFnErrorStops runs scan with an fn that fails at record k, at
// GOMAXPROCS 1, 2 and 8: the scan must return that error after exactly
// k records, and leave no goroutine behind.
func checkFnErrorStops(t *testing.T, total int, scan func(fn func(JSONLEntry) error) error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		for _, k := range []int{0, 1, total / 3, total - 1} {
			stop := fmt.Errorf("stop at %d", k)
			n := 0
			err := scan(func(JSONLEntry) error {
				if n == k {
					return stop
				}
				n++
				return nil
			})
			if !errors.Is(err, stop) || n != k {
				t.Errorf("GOMAXPROCS %d, stop at %d: error %v after %d records", procs, k, err, n)
			}
		}
		if err := scan(func(JSONLEntry) error { return nil }); err != nil {
			t.Errorf("GOMAXPROCS %d: full scan: %v", procs, err)
		}
		waitForGoroutines(t, before)
	}
}

// waitForGoroutines fails t unless the goroutine count falls back to
// want within a second (an exiting goroutine is counted until it has
// returned).
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the scans", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScanJSONLStopsAtFnError: fn's error stops the scan at its record
// and no worker outlives the call.
func TestScanJSONLStopsAtFnError(t *testing.T) {
	withRunBytes(t, 4096)
	lines := jsonlLines(3000)
	data := append(bytes.Join(lines, []byte("\n")), '\n')
	checkFnErrorStops(t, len(lines), func(fn func(JSONLEntry) error) error {
		return ScanJSONL(bytes.NewReader(data), fn)
	})
}

// FuzzScanJSONL: on any input and at any run size, the fan-out scan
// delivers the reference's entries and error.
func FuzzScanJSONL(f *testing.F) {
	lines := jsonlLines(6)
	f.Add(append(bytes.Join(lines, []byte("\n")), '\n'), uint8(16))
	f.Add(bytes.Join(lines, []byte("\r\n\n")), uint8(1))
	f.Add([]byte("\n\n{\"system\"\r\n"), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, run uint8) {
		withRunBytes(t, int(run)%200+1)
		sameAsReference(t, "fuzz", data)
	})
}
