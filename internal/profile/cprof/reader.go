package cprof

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"conferr/internal/profile"
)

// ScanAuto streams a profile of either format to fn: it sniffs the
// cprof magic (not a file extension — pipes and misnamed files decode
// by content) and dispatches to Scan or profile.ScanJSONL, which decode
// on GOMAXPROCS workers while fn runs on the caller's goroutine, in
// file order. The unified entry point for everything that folds a
// record stream.
func ScanAuto(r io.Reader, fn func(profile.JSONLEntry) error) error {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 256*1024)
	}
	head, err := br.Peek(len(fileMagic))
	if err == nil && bytes.Equal(head, fileMagic) {
		return Scan(br, fn)
	}
	return profile.ScanJSONL(br, fn)
}

// ScanPath is ScanAuto over a file path; "-" reads stdin. Decoding fans
// out across GOMAXPROCS workers; fn runs on the caller's goroutine, and
// records arrive in file order — use ScanFileSeqOrdered when global
// sequence order matters.
func ScanPath(path string, fn func(profile.JSONLEntry) error) error {
	if path == "-" {
		return ScanAuto(os.Stdin, fn)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	defer f.Close()
	return ScanAuto(f, fn)
}

// IsCprofPath reports whether the file at path starts with the cprof
// magic ("-" — stdin — reports false, as it cannot be re-read).
func IsCprofPath(path string) (bool, error) {
	if path == "-" {
		return false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("profile: %w", err)
	}
	defer f.Close()
	var head [len("cprof\x01")]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && n == 0 && err != io.EOF {
		return false, fmt.Errorf("profile: %w", err)
	}
	return bytes.Equal(head[:n], fileMagic), nil
}
