package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the repository root, found from
// either the root or this directory.
func loadSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchmarkSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// loadResults reads untraced result lines from files into
// workload → metric → values.
func loadResults(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var rl resultLine
			if err := json.Unmarshal(sc.Bytes(), &rl); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if rl.Trace != 0 {
				continue
			}
			if out[rl.Workload] == nil {
				out[rl.Workload] = map[string][]float64{}
			}
			for name, m := range rl.Result.Metrics {
				out[rl.Workload][name] = append(out[rl.Workload][name], m.Value)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdictFor classifies B against A for one metric: regressed or
// improved when the medians differ by more than the bound, unresolved
// when either side's spread (quartile distance over median) is wider
// than the bound and B does not beat A on every run.
func verdictFor(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	worse := (bm - am) / am
	if !lowerBetter {
		worse = -worse
	}
	spread := max((a3-a1)/am, (b3-b1)/bm)
	better := func(x, y float64) bool { return (x < y) == lowerBetter && x != y }
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && -worse > bound:
		return "improved", spread
	case spread > bound:
		return "unresolved", spread
	case worse > bound:
		return "regressed", spread
	case -worse > bound:
		return "improved", spread
	}
	return "ok", spread
}

// compareSets prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict; it fails when any pair regressed
// or is unresolved.
func compareSets(w io.Writer, setA, setB []string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	a, err := loadResults(setA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadResults(setB); err == nil {
			return printComparison(w, spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func printComparison(w io.Writer, spec *benchmarkSpec, a, b map[string]map[string][]float64) int {
	status := 0
	fmt.Fprintf(w, "%-16s %-16s %28s %28s %8s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "spread", "verdict")
	for _, wl := range slices.Sorted(maps.Keys(a)) {
		for _, m := range spec.EndToEnd {
			av, bv := a[wl][m.Name], b[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-16s %-16s missing on one side\n", wl, m.Name)
				status = 1
				continue
			}
			v, spread := verdictFor(av, bv, m.Better == "lower", m.Bound)
			if v == "regressed" || v == "unresolved" {
				status = 1
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			fmt.Fprintf(w, "%-16s %-16s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+7.2f%% %6.2f%%  %s (n=%d/%d, bound %.0f%%)\n",
				wl, m.Name, am, a1, a3, bm, b1, b3, 100*(bm-am)/am, 100*spread, v, len(av), len(bv), 100*m.Bound)
		}
	}
	return status
}
