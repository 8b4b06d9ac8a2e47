package view

import (
	"slices"
	"strconv"
	"sync"
	"testing"

	"conferr/internal/template"
)

// resetRefCache empties the package-wide ref cache.
func resetRefCache() {
	refCache.Clear()
	refCacheLen.Store(0)
}

// TestParseRefCachedConcurrent hammers the ref cache from several
// goroutines (run it under -race): every lookup returns the ref ParseRef
// parses, malformed strings keep ParseRef's error and stay uncached, and
// concurrent misses past the cap never store more than refCacheCap
// entries.
func TestParseRefCachedConcurrent(t *testing.T) {
	resetRefCache()
	t.Cleanup(resetRefCache)

	hot := make([]string, 64)
	for i := range hot {
		hot[i] = "nginx.conf#" + strconv.Itoa(i%7) + "." + strconv.Itoa(i)
	}
	hot = append(hot, "nginx.conf#")
	const bad = "nginx.conf#1.x"
	_, wantErr := template.ParseRef(bad)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 50 {
				for _, s := range hot {
					got, err := parseRefCached(s)
					want, _ := template.ParseRef(s)
					if err != nil || got.File != want.File || !slices.Equal(got.Indices, want.Indices) {
						errs <- s + ": got " + got.String() + ", want " + want.String()
						return
					}
				}
				if _, err := parseRefCached(bad); err == nil || err.Error() != wantErr.Error() {
					errs <- "malformed ref: unexpected error"
					return
				}
				// Distinct strings per goroutine and round: together far
				// more than the cap.
				for i := range 20 {
					s := "f" + strconv.Itoa(g) + "#" + strconv.Itoa(round) + "." + strconv.Itoa(i)
					if got, err := parseRefCached(s); err != nil || got.String() != s {
						errs <- s + ": got " + got.String()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	n := 0
	refCache.Range(func(k, _ any) bool {
		if k == bad {
			t.Errorf("malformed ref %q was cached", bad)
		}
		n++
		return true
	})
	if n != refCacheCap || int(refCacheLen.Load()) != n {
		t.Errorf("cache holds %d entries, counter %d, want cap %d", n, refCacheLen.Load(), refCacheCap)
	}
}
