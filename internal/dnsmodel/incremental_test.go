package dnsmodel

import (
	"errors"
	"testing"

	"conferr/internal/confnode"
	"conferr/internal/formats/tinydns"
	"conferr/internal/view"
)

// incrementalFold is one way of folding a tracked mutation back.
type incrementalFold struct {
	name string
	fold func(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error)
}

// incrementalFolds lists both ways the engine folds back: the allocating
// IncrementalBackward, and IncrementalBackwardInto on a reused wrapper
// that still holds the previous experiment's materialized stale file —
// which must not leak into the next fold.
func incrementalFolds(v view.IncrementalInto, stale string) []incrementalFold {
	return []incrementalFold{
		{"IncrementalBackward", v.IncrementalBackward},
		{"IncrementalBackwardInto", func(dirty []string, mutated, sys *confnode.Set) (*confnode.Set, error) {
			dst := sys.TrackedInto(nil, nil)
			dst.Get(stale)
			out, err := v.IncrementalBackwardInto(dst, dirty, mutated, sys)
			if err == nil && out != dst {
				return nil, errors.New("IncrementalBackwardInto did not reuse dst")
			}
			return out, err
		}},
	}
}

// TestZoneViewIncrementalBackward mutates one zone and checks the fast
// path against the full Backward: the touched zone folds identically, the
// untouched zone and the pass-through named.conf keep sharing the
// baseline trees.
func TestZoneViewIncrementalBackward(t *testing.T) {
	v := zoneView()
	sys := zoneSysSet(t)
	fwd, err := v.Forward(sys)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(s *confnode.Set) {
		recs := s.Get("example.zone").ChildrenByKind(confnode.KindRecord)
		for _, r := range recs {
			if r.AttrDefault(AttrType, "") == "CNAME" {
				r.Value = "mail.example.com"
			}
		}
	}

	refMutated := fwd.Clone()
	mutate(refMutated)
	want, err := v.Backward(refMutated, sys)
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range incrementalFolds(v, "reverse.zone") {
		t.Run(f.name, func(t *testing.T) {
			tracked := fwd.TrackedInto(nil, nil)
			mutate(tracked)
			out, err := f.fold(tracked.SealAppend(nil), tracked, sys)
			if err != nil {
				t.Fatal(err)
			}
			dirty := out.SealAppend(nil)
			if len(dirty) != 1 || dirty[0] != "example.zone" {
				t.Fatalf("sys dirty = %v, want [example.zone]", dirty)
			}
			if !out.Get("example.zone").Equal(want.Get("example.zone")) {
				t.Errorf("folded zone diverges from full Backward:\nfast:\n%s\nreference:\n%s",
					out.Get("example.zone").Dump(), want.Get("example.zone").Dump())
			}
			if out.Get("reverse.zone") != sys.Get("reverse.zone") {
				t.Error("untouched zone was rebuilt")
			}
			if out.Get("named.conf") != sys.Get("named.conf") {
				t.Error("pass-through file was rebuilt")
			}
		})
	}
}

// TestTinyViewIncrementalBackward deletes a whole A/PTR pair — an
// expressible mutation — and checks fold parity with the full Backward.
func TestTinyViewIncrementalBackward(t *testing.T) {
	doc, err := (tinydns.Format{}).Parse("data", []byte(tinyData))
	if err != nil {
		t.Fatal(err)
	}
	sys := confnode.NewSet()
	sys.Put("data", doc)
	v := TinyRecordView{File: "data"}
	fwd, err := v.Forward(sys)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(s *confnode.Set) {
		for _, r := range s.Get("data").ChildrenByKind(confnode.KindRecord) {
			if r.Name == Canon("www.example.com") || r.Value == "www.example.com" {
				r.Remove()
			}
		}
	}

	refMutated := fwd.Clone()
	mutate(refMutated)
	want, err := v.Backward(refMutated, sys)
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range incrementalFolds(v, "data") {
		t.Run(f.name, func(t *testing.T) {
			tracked := fwd.TrackedInto(nil, nil)
			mutate(tracked)
			out, err := f.fold(tracked.SealAppend(nil), tracked, sys)
			if err != nil {
				t.Fatal(err)
			}
			if dirty := out.SealAppend(nil); len(dirty) != 1 || dirty[0] != "data" {
				t.Fatalf("sys dirty = %v, want [data]", dirty)
			}
			if !out.Get("data").Equal(want.Get("data")) {
				t.Errorf("folded data diverges:\nfast:\n%s\nreference:\n%s",
					out.Get("data").Dump(), want.Get("data").Dump())
			}
		})
	}
}

// TestTinyViewIncrementalNotExpressibleParity removes only the PTR half of
// a combined "=" directive: both paths must reject it the same way.
func TestTinyViewIncrementalNotExpressibleParity(t *testing.T) {
	doc, err := (tinydns.Format{}).Parse("data", []byte(tinyData))
	if err != nil {
		t.Fatal(err)
	}
	sys := confnode.NewSet()
	sys.Put("data", doc)
	v := TinyRecordView{File: "data"}
	fwd, err := v.Forward(sys)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(s *confnode.Set) {
		for _, r := range s.Get("data").ChildrenByKind(confnode.KindRecord) {
			if r.AttrDefault(AttrType, "") == "PTR" && r.Value == "www.example.com" {
				r.Remove()
				return
			}
		}
	}

	refMutated := fwd.Clone()
	mutate(refMutated)
	_, refErr := v.Backward(refMutated, sys)

	for _, f := range incrementalFolds(v, "data") {
		t.Run(f.name, func(t *testing.T) {
			tracked := fwd.TrackedInto(nil, nil)
			mutate(tracked)
			_, fastErr := f.fold(tracked.SealAppend(nil), tracked, sys)

			if !errors.Is(refErr, view.ErrNotExpressible) || !errors.Is(fastErr, view.ErrNotExpressible) {
				t.Fatalf("errors = %v / %v, want both ErrNotExpressible", refErr, fastErr)
			}
			if refErr.Error() != fastErr.Error() {
				t.Errorf("error text diverges:\nfast: %s\nreference: %s", fastErr, refErr)
			}
		})
	}
}
