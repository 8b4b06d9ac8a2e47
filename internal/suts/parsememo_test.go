package suts_test

import (
	"errors"
	"testing"

	"conferr/internal/suts"
)

// TestParseMemoCheck pins the ReloadDirty rule: a clean miss is
// memoized and the next call hits; a dirty or missing file bypasses the
// memo; a failed clean check is not memoized.
func TestParseMemoCheck(t *testing.T) {
	calls := 0
	check := func(files suts.Files) (string, error) {
		calls++
		data, ok := files["a.conf"]
		if !ok || string(data) == "bad" {
			return "", errors.New("rejected")
		}
		return string(data), nil
	}
	expect := func(m *suts.ParseMemo[string], files suts.Files, dirty []string, want string, wantCalls int) {
		t.Helper()
		got, err := m.Check(files, dirty, "a.conf", check)
		if want == "" {
			if err == nil {
				t.Fatalf("Check = %q, want an error", got)
			}
		} else if err != nil || got != want {
			t.Fatalf("Check = %q, %v, want %q", got, err, want)
		}
		if calls != wantCalls {
			t.Fatalf("check ran %d times, want %d", calls, wantCalls)
		}
	}

	var m suts.ParseMemo[string]
	base := suts.Files{"a.conf": []byte("base")}
	expect(&m, base, nil, "base", 1)                                                      // clean miss
	expect(&m, base, []string{"other.conf"}, "base", 1)                                   // clean hit
	expect(&m, base, []string{"a.conf"}, "base", 2)                                       // dirty: bypass
	expect(&m, suts.Files{"a.conf": []byte("mutated")}, []string{"a.conf"}, "mutated", 3) // dirty: not stored
	expect(&m, suts.Files{}, nil, "", 4)                                                  // missing: bypass
	expect(&m, base, nil, "base", 4)                                                      // the baseline still hits

	var failed suts.ParseMemo[string]
	bad := suts.Files{"a.conf": []byte("bad")}
	expect(&failed, bad, nil, "", 5)
	expect(&failed, bad, nil, "", 6) // a failed clean check is not memoized
}
