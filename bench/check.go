package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"maps"
	"slices"
	"strconv"

	"conferr"
	"conferr/internal/profile"
	"conferr/internal/profile/cprof"
)

// cellOut is one campaign cell's output in canonical form: the SHA-256
// of its records rendered as -no-duration JSONL in sequence order.
type cellOut struct {
	Records  int            `json:"records"`
	SHA256   string         `json:"sha256"`
	Outcomes map[string]int `json:"outcomes"`
	// prefix is the digest of the first k records, compared against the
	// reference run; seqGap reports a sequence that was not 0, 1, 2, ….
	prefix string
	seqGap bool
}

// canon folds profile entries into per-cell digests.
type canon struct {
	k     int
	cells map[string]*cellHash
}

type cellHash struct {
	full, prefix hash.Hash
	out          cellOut
	buf          []byte
}

// newCanon expects the given cells: a cell that writes no record still
// gets a (empty) digest.
func newCanon(k int, keys []string) *canon {
	c := &canon{k: k, cells: map[string]*cellHash{}}
	for _, key := range keys {
		c.cell(key)
	}
	return c
}

func (c *canon) cell(key string) *cellHash {
	h := c.cells[key]
	if h == nil {
		h = &cellHash{full: sha256.New(), prefix: sha256.New(), out: cellOut{Outcomes: map[string]int{}}}
		c.cells[key] = h
	}
	return h
}

func (c *canon) add(e conferr.JSONLEntry) error {
	h := c.cell(e.System + "/" + e.Generator)
	if e.Seq != h.out.Records {
		h.out.seqGap = true
	}
	h.buf = profile.AppendJSONLRecord(h.buf[:0], e.System, e.Generator, e.Seq, e.Record)
	h.full.Write(h.buf)
	if h.out.Records < c.k {
		h.prefix.Write(h.buf)
	}
	h.out.Records++
	h.out.Outcomes[e.Record.Outcome.String()]++
	return nil
}

// file scans one profile: cprof in canonical sequence order (frames of
// different workers interleave in the file), JSONL in file order.
func (c *canon) file(path string) error {
	isCprof, err := cprof.IsCprofPath(path)
	if err != nil {
		return err
	}
	if isCprof {
		return conferr.ScanCprofSeqOrdered(path, c.add)
	}
	return conferr.ScanProfilePath(path, c.add)
}

func (c *canon) result() map[string]cellOut {
	out := make(map[string]cellOut, len(c.cells))
	for key, h := range c.cells {
		o := h.out
		o.SHA256 = hex.EncodeToString(h.full.Sum(nil))
		o.prefix = hex.EncodeToString(h.prefix.Sum(nil))
		out[key] = o
	}
	return out
}

// sameCells reports the first difference between two sets of cells.
func sameCells(want, got map[string]cellOut) error {
	for _, key := range slices.Sorted(maps.Keys(want)) {
		w, g := want[key], got[key]
		if w.Records != g.Records || w.SHA256 != g.SHA256 || !maps.Equal(w.Outcomes, g.Outcomes) {
			return fmt.Errorf("cell %s: %d records sha256 %.12s %v, want %d records sha256 %.12s %v",
				key, g.Records, g.SHA256, g.Outcomes, w.Records, w.SHA256, w.Outcomes)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d cells, want %d", len(got), len(want))
	}
	return nil
}

// expectedJSON holds the canonical cells of every workload at full scale
// for seed 12 and the held-out seed 13: workload → seed → cell.
//
//go:embed expected.json
var expectedJSON []byte

func expectedCells(workload string, seed int64) (map[string]cellOut, bool, error) {
	var all map[string]map[string]map[string]cellOut
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, false, fmt.Errorf("bench: expected.json: %w", err)
	}
	cells, ok := all[workload][strconv.FormatInt(seed, 10)]
	return cells, ok, nil
}

// verdict collects the correctness findings of one run.
type verdict struct {
	problems  []string
	attempted int
	failed    int
}

func (v *verdict) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// check applies the correctness gate to one run's iterations: every
// iteration's cells identical, gap-free and free of infrastructure
// errors; limit-bound cells complete; the prefix equal to the reference
// run's; and, at full scale for a seed in expected.json, every cell
// equal to the recorded one.
func check(w *workload, e *env, its []*iteration, ref map[string]cellOut, v *verdict) {
	if len(its) == 0 {
		v.fail("no iteration completed")
		return
	}
	base := its[0].cells
	for i, it := range its {
		v.attempted += it.records
		if err := sameCells(base, it.cells); err != nil {
			v.fail("iteration %d differs from iteration 1: %v", i+1, err)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(base)) {
		c := base[key]
		if c.seqGap {
			v.fail("cell %s: sequence numbers are not contiguous from 0", key)
		}
		if n := c.Outcomes[conferr.InfrastructureError.String()]; n > 0 {
			v.failed += n * len(its)
			v.fail("cell %s: %d infrastructure-error records", key, n)
		}
	}
	if len(base) == 1 {
		for key, c := range base {
			if want := e.n(w.cell.limit); c.Records != want {
				v.fail("cell %s: %d records, want the limit %d", key, c.Records, want)
			}
		}
	}
	if ref != nil {
		k := e.n(w.refK)
		for _, key := range slices.Sorted(maps.Keys(base)) {
			r, c := ref[key], base[key]
			if r.Records != min(k, c.Records) || r.SHA256 != c.prefix {
				v.fail("cell %s: first %d records differ from the reference run (%d records sha256 %.12s, got prefix %.12s)",
					key, min(k, c.Records), r.Records, r.SHA256, c.prefix)
			}
		}
	}
	if e.scale == 1 {
		want, ok, err := expectedCells(w.name, e.seed)
		if err != nil {
			v.fail("%v", err)
		} else if ok {
			if err := sameCells(want, base); err != nil {
				v.fail("seed %d differs from expected.json: %v", e.seed, err)
			}
		}
	}
}
