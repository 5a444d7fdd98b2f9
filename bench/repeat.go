package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatCheck runs the set n times with the same seed and prints, per
// workload × end-to-end metric, every value, the spread (max − min over
// their median) and the metric's bound from BENCHMARK.json. A workload whose
// runs disagree beyond a bound is run once more and each metric judged
// without its value farthest from the median: about one run in thirty on a
// shared box lands in a slow stretch of the host and is 20–50 % off on every
// metric at once. Every run made is printed. It returns non-zero when a
// spread still exceeds its bound or any run was invalid or failed a check:
// the benchmark cannot then tell a regression from its own noise.
func repeatCheck(run []spec, seed int64, seconds float64, n int) int {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -repeat needs the bounds:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	code := 0
	var lines []string
	for _, sp := range run {
		values := map[string][]float64{} // metric → one value per run
		once := func() bool {
			o, err := runOne(sp, seed, seconds, false, "")
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return false
			}
			code = max(code, report(o, endToEnd))
			for _, d := range endToEnd {
				values[d.name] = append(values[d.name], o.Metrics[d.name])
			}
			return true
		}
		beyond := func(drop bool) bool {
			any := false
			for _, m := range bf.EndToEnd {
				if spreadOf(values[m.Name], drop) > m.Bound {
					any = true
				}
			}
			return any
		}
		for i := 0; i < n; i++ {
			if !once() {
				return 1
			}
		}
		extra := beyond(false)
		if extra && !once() {
			return 1
		}
		for _, m := range bf.EndToEnd {
			spread := spreadOf(values[m.Name], extra)
			verdict := "ok"
			if spread > m.Bound {
				verdict, code = "BEYOND BOUND", max(code, 1)
			}
			lines = append(lines, fmt.Sprintf("  %-20s %-11s %s spread %.3f bound %.2f %s",
				sp.name, m.Name, fmtFloats(values[m.Name]), spread, m.Bound, verdict))
		}
	}
	fmt.Printf("== repeatability over %d runs of seed %d (a workload that disagreed was run once more and judged without each metric's outlier)\n", n, seed)
	for _, l := range lines {
		fmt.Println(l)
	}
	return code
}

// spreadOf is (max − min)/median of v, after dropping the value farthest
// from the median when drop is set.
func spreadOf(v []float64, drop bool) float64 {
	v = slices.Clone(v)
	slices.Sort(v)
	if drop && len(v) > 2 {
		if med := median(slices.Clone(v)); med-v[0] > v[len(v)-1]-med {
			v = v[1:]
		} else {
			v = v[:len(v)-1]
		}
	}
	return (v[len(v)-1] - v[0]) / median(slices.Clone(v))
}
