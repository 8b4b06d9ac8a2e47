package cprof

import (
	"cmp"
	"container/heap"
	"fmt"
	"io"
	"os"
	"slices"

	"conferr/internal/profile"
)

// ScanSeqOrdered replays a cprof stream in canonical order: campaigns
// in order of first appearance in the file, and within each campaign
// records in ascending sequence order. For files written by one ordered
// sink this equals a plain Scan; for files written through the sharded
// bypass — whose sub-sinks interleave stride-n frames — it k-way merges
// the overlapping frames by sequence, decoding each frame exactly once
// and holding at most the overlapping set (≈ the worker count) in
// memory. This is the order that makes cprof→JSONL conversion
// byte-identical to the ordered JSONL stream of the same campaign.
//
// Decoding fans out (see profile.Fan): GOMAXPROCS workers decode frames
// ahead in the order the replay first needs them, and fn runs on the
// caller's goroutine, in canonical order. A non-nil error from fn stops
// the replay and is returned verbatim, whichever order the frames lie in.
func ScanSeqOrdered(ra io.ReaderAt, size int64, fn func(profile.JSONLEntry) error) error {
	frames, _, err := ReadIndex(ra, size)
	if err != nil {
		return err
	}
	type campaignKey struct{ system, generator string }
	var order []campaignKey
	groups := make(map[campaignKey][]FrameInfo)
	for _, fi := range frames {
		k := campaignKey{fi.System, fi.Generator}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], fi)
	}
	// plan lists every frame in the order the replay first needs it: a
	// campaign in file order when its frames ascend without overlap, else
	// in the order the k-way merge surfaces its undecoded frames.
	plan := make([]FrameInfo, 0, len(frames))
	for _, k := range order {
		if fr := groups[k]; ascending(fr) {
			plan = append(plan, fr...)
		} else {
			plan = append(plan, mergeOrder(fr)...)
		}
	}
	next := 0
	f := profile.NewFan(func(u *frameUnit) (bool, error) {
		if next == len(plan) {
			return false, nil
		}
		u.fi = plan[next]
		next++
		return true, nil
	}, func(u *frameUnit, dst []profile.JSONLEntry) ([]profile.JSONLEntry, error) {
		return decodeFrameAt(ra, u.fi, &u.dec, dst)
	})
	defer f.Close()
	for _, k := range order {
		if err := scanCampaignOrdered(f, groups[k], fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanFileSeqOrdered is ScanSeqOrdered over a file path.
func ScanFileSeqOrdered(path string, fn func(profile.JSONLEntry) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("cprof: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("cprof: %w", err)
	}
	return ScanSeqOrdered(f, st.Size(), fn)
}

// ascending reports whether frames ascend by sequence without overlap,
// as a single ordered sink (stream-out, dist merge) writes them.
func ascending(frames []FrameInfo) bool {
	for i := 1; i < len(frames); i++ {
		if frames[i].FirstSeq <= frames[i-1].LastSeq {
			return false
		}
	}
	return true
}

// mergeOrder is the order in which scanCampaignOrdered's k-way merge
// decodes frames: by (FirstSeq, file order), the key an undecoded frame
// holds in the heap, which never changes while it waits there.
func mergeOrder(frames []FrameInfo) []FrameInfo {
	sorted := slices.Clone(frames)
	slices.SortStableFunc(sorted, func(a, b FrameInfo) int { return cmp.Compare(a.FirstSeq, b.FirstSeq) })
	return sorted
}

// scanCampaignOrdered emits one campaign's frames in sequence order,
// taking their decoded batches from f in the order ScanSeqOrdered
// planned.
func scanCampaignOrdered(f *profile.Fan[frameUnit], frames []FrameInfo, fn func(profile.JSONLEntry) error) error {
	if ascending(frames) {
		for range frames {
			b, err := f.Next()
			if b == nil {
				return err
			}
			if err := b.Each(fn); err != nil {
				return err
			}
		}
		return nil
	}

	// Shard-interleaved frames: lazy k-way merge. Frames enter the heap
	// undecoded, keyed by their index FirstSeq; a frame takes its decoded
	// batch the first time it surfaces at the heap top and stays resident
	// only until its records drain, when its slice becomes the spare the
	// next batch is swapped for.
	h := make(frameHeap, 0, len(frames))
	for i := range frames {
		h = append(h, &frameCursor{fi: frames[i], seq: frames[i].FirstSeq, ord: i})
	}
	heap.Init(&h)
	var spare []profile.JSONLEntry
	for h.Len() > 0 {
		cur := h[0]
		if !cur.decoded {
			b, err := f.Next()
			if b == nil {
				return err
			}
			if b.Err != nil {
				return b.Err
			}
			cur.decoded = true
			cur.entries, b.Entries, spare = b.Entries, spare, nil
			if len(cur.entries) == 0 {
				heap.Pop(&h)
				continue
			}
			// Re-key on the decoded reality in case the index lied.
			cur.seq = cur.entries[0].Seq
			heap.Fix(&h, 0)
			continue
		}
		if err := fn(cur.entries[cur.next]); err != nil {
			return err
		}
		cur.next++
		if cur.next >= len(cur.entries) {
			spare, cur.entries = cur.entries[:0], nil
			heap.Pop(&h)
			continue
		}
		cur.seq = cur.entries[cur.next].Seq
		heap.Fix(&h, 0)
	}
	return nil
}

// frameCursor is one frame's position in the merge: undecoded until it
// first reaches the heap top.
type frameCursor struct {
	fi      FrameInfo
	seq     int // current sort key
	ord     int // file order, the deterministic tie-break
	decoded bool
	entries []profile.JSONLEntry
	next    int
}

// frameHeap is a min-heap of cursors by (seq, file order).
type frameHeap []*frameCursor

func (h frameHeap) Len() int { return len(h) }
func (h frameHeap) Less(i, j int) bool {
	if h[i].seq != h[j].seq {
		return h[i].seq < h[j].seq
	}
	return h[i].ord < h[j].ord
}
func (h frameHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *frameHeap) Push(x any)   { *h = append(*h, x.(*frameCursor)) }
func (h *frameHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
