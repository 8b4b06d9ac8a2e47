package sutpool

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"conferr/internal/suts"
)

func TestReplaceNumber(t *testing.T) {
	cases := []struct{ s, from, to, want string }{
		{"port = 23306", "23306", "54012", "port = 54012"},
		{"port = 2330", "23306", "54012", "port = 2330"},     // typo'd prefix
		{"port = 233066", "23306", "54012", "port = 233066"}, // typo'd duplication
		{"port = 123306", "23306", "54012", "port = 123306"}, // embedded
		{"dial 127.0.0.1:23306: refused", "23306", "54012", "dial 127.0.0.1:54012: refused"},
		{"23306 and 23306", "23306", "54012", "54012 and 54012"},
		{"", "23306", "54012", ""},
		{"x", "", "54012", "x"},
	}
	for _, tc := range cases {
		if got := replaceNumber(tc.s, tc.from, tc.to); got != tc.want {
			t.Errorf("replaceNumber(%q, %q, %q) = %q, want %q", tc.s, tc.from, tc.to, got, tc.want)
		}
	}
}

// portSUT records the configurations it is started on and fails its
// starts from a script.
type portSUT struct {
	got   []suts.Files
	errs  []error // returned by successive Starts; nil once exhausted
	stops int
}

func (s *portSUT) Name() string              { return "ports" }
func (s *portSUT) DefaultConfig() suts.Files { return nil }
func (s *portSUT) Stop() error               { s.stops++; return nil }

func (s *portSUT) Start(files suts.Files) error {
	s.got = append(s.got, files)
	if len(s.errs) == 0 {
		return nil
	}
	err := s.errs[0]
	s.errs = s.errs[1:]
	return err
}

const (
	primaryPort = 23901
	workerPort  = 54012
)

func mappedInstance(sys suts.System) *Instance {
	inst := NewInstance(sys, Cold, nil)
	inst.MapPort(primaryPort, workerPort)
	return inst
}

// TestMapPortRewritesStartFiles: the SUT sees the worker's port, and a
// typo'd longer number that merely contains the primary's digits stays
// as it is.
func TestMapPortRewritesStartFiles(t *testing.T) {
	sys := &portSUT{}
	inst := mappedInstance(sys)
	err := inst.Start(suts.Files{
		"a.conf": []byte("port = 23901\n"),
		"b.conf": []byte("port = 239011\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := sys.got[0]
	if s := string(got["a.conf"]); s != "port = 54012\n" {
		t.Errorf("a.conf = %q, want the worker port", s)
	}
	if s := string(got["b.conf"]); s != "port = 239011\n" {
		t.Errorf("b.conf = %q, want the typo'd port untouched", s)
	}
}

// TestMapPortUnmapsErrors: errors come back naming the primary port; a
// startup rejection stays a *suts.StartupError, anything else keeps the
// original in its chain.
func TestMapPortUnmapsErrors(t *testing.T) {
	cause := errors.New("dial 127.0.0.1:54012: refused")
	sys := &portSUT{errs: []error{
		&suts.StartupError{System: "ports", Msg: "port 54012 rejected"},
		cause,
	}}
	inst := mappedInstance(sys)
	files := suts.Files{"a.conf": []byte("port = 23901\n")}

	err := inst.Start(files)
	var se *suts.StartupError
	if !errors.As(err, &se) {
		t.Fatalf("err = %#v, want a *suts.StartupError", err)
	}
	if se.Msg != "port 23901 rejected" {
		t.Errorf("startup message = %q, want the primary port", se.Msg)
	}

	err = inst.Start(files)
	if err == nil || err.Error() != "dial 127.0.0.1:23901: refused" {
		t.Errorf("err = %v, want the primary port", err)
	}
	if !errors.Is(err, cause) {
		t.Error("remapped error lost its cause")
	}
}

// TestMapPortMemoKeepsIdentity: the same input slice remaps to the same
// output slice, which downstream DirtyReloader baseline-parse memos key
// on.
func TestMapPortMemoKeepsIdentity(t *testing.T) {
	sys := &portSUT{}
	inst := mappedInstance(sys)
	files := suts.Files{"a.conf": []byte("port = 23901\n")}
	for range 2 {
		if err := inst.Start(files); err != nil {
			t.Fatal(err)
		}
	}
	first, second := sys.got[0]["a.conf"], sys.got[1]["a.conf"]
	if &first[0] != &second[0] {
		t.Error("the same input slice remapped to different backing arrays")
	}
}

// TestMapPortRetriesBindCollisions: a start that collides with another
// worker's port is retried after a Stop, until it binds, and counted
// once.
func TestMapPortRetriesBindCollisions(t *testing.T) {
	inUse := fmt.Errorf("listen tcp 127.0.0.1:%d: bind: address already in use", workerPort)
	sys := &portSUT{errs: []error{inUse, inUse}}
	inst := mappedInstance(sys)
	if err := inst.Start(suts.Files{"a.conf": []byte("port = 23901\n")}); err != nil {
		t.Fatalf("Start = %v, want success on the third try", err)
	}
	if len(sys.got) != 3 || sys.stops != 2 {
		t.Errorf("starts = %d, stops = %d; want 3 and 2", len(sys.got), sys.stops)
	}
	if n := inst.c.ColdStarts.Load(); n != 1 {
		t.Errorf("counted cold starts = %d, want 1: retries repeat the start they replace", n)
	}

	// Without MapPort an instance has no siblings and does not retry.
	bare := &portSUT{errs: []error{inUse}}
	err := NewInstance(bare, Cold, nil).Start(nil)
	if err == nil || !strings.Contains(err.Error(), "address already in use") || len(bare.got) != 1 {
		t.Errorf("bare instance: err = %v after %d starts, want one failed start", err, len(bare.got))
	}
}
