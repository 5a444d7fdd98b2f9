package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.1, 10}, {0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// One window holding a stall must not move the reported percentiles: they
// are medians over windows.
func TestSummarizeWindowsIgnoresOneStall(t *testing.T) {
	win := func(base int64) []int64 {
		w := make([]int64, 1000)
		for i := range w {
			w[i] = base + int64(i)
		}
		return w
	}
	stalled := win(1000)
	for i := 500; i < 1000; i++ {
		stalled[i] = 50_000_000 // half the window sat behind a 50 ms stall
	}
	got := summarizeWindows([][]int64{win(1000), stalled, win(1000), nil})
	if got.Windows != 3 || got.Samples != 3000 {
		t.Fatalf("windows %d samples %d, want 3 and 3000", got.Windows, got.Samples)
	}
	if got.P50 != 1499 || got.P90 != 1899 || got.P99 != 1989 {
		t.Errorf("p50 %v p90 %v p99 %v, want 1499 1899 1989", got.P50, got.P90, got.P99)
	}
	if got.Max != 50_000_000 {
		t.Errorf("max %v, want the stall", got.Max)
	}
	if got.P999 != 0 {
		t.Errorf("p99.9 %v reported from %d samples; needs 10 000", got.P999, got.Samples)
	}
}

func TestCopyLedger(t *testing.T) {
	var l copyLedger
	for i := uint64(0); i < 3000; i++ {
		if i == 7 {
			continue // lost entirely
		}
		copies := 4
		if i == 9 {
			copies = 3 // one copy short
		}
		for c := 0; c < copies; c++ {
			if l.add(i, 4) {
				t.Fatalf("copy %d of %d flagged beyond fan-out", c, i)
			}
		}
	}
	if !l.add(5, 4) {
		t.Error("fifth copy of index 5 not flagged beyond fan-out")
	}
	if got := l.missing(3000, 4); got != 5 {
		t.Errorf("missing = %d, want 5", got)
	}
	if got := l.missingIn(8, 3000, 4); got != 1 {
		t.Errorf("missing from 8 = %d, want 1", got)
	}
	if got := l.missing(3002, 4); got != 13 {
		t.Errorf("missing with two unsent-to indices = %d, want 13", got)
	}
}

func TestWindowHealthVoid(t *testing.T) {
	for _, c := range []struct {
		name string
		w    windowHealth
		void bool
	}{
		{"clean", windowHealth{Sent: 100, MaxLat: 2_000_000}, false},
		{"stall but nothing lost", windowHealth{Sent: 100, MaxLat: 40_000_000}, false},
		{"lost beside a stall", windowHealth{Sent: 100, Missing: 3, MaxLat: 12_000_000}, true},
		{"lost with no stall", windowHealth{Sent: 100, Missing: 3, MaxLat: 2_000_000}, false},
		{"generator late", windowHealth{Sent: 100, LateP99: 1_500_000}, true},
	} {
		if got := c.w.void() != ""; got != c.void {
			t.Errorf("%s: void = %v, want %v", c.name, got, c.void)
		}
	}
}

func TestRateLadder(t *testing.T) {
	r := rateLadder(1000, 2000, 1.05)
	if r[0] != 1000 || r[len(r)-1] > 2000 || r[len(r)-1] < 2000/1.05 {
		t.Fatalf("ladder %v does not span 1000…2000", r)
	}
	for i := 1; i < len(r); i++ {
		if step := r[i] / r[i-1]; math.Abs(step-1.05) > 0.002 {
			t.Errorf("step %d is ×%.4f, want ×1.05", i, step)
		}
	}
}

func TestSearchLadder(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for last := -1; last < n; last++ { // rungs 0..last pass
			calls := 0
			got := searchLadder(n, func(i int) bool { calls++; return i <= last })
			if got != last {
				t.Fatalf("n=%d: found %d, want %d", n, got, last)
			}
			if limit := int(math.Ceil(math.Log2(float64(n)))) + 1; calls > limit {
				t.Fatalf("n=%d last=%d: %d trials, want ≤ %d", n, last, calls, limit)
			}
		}
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(90, 110); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relDiff(90,110) = %v, want 0.2", got)
	}
	if relDiff(0, 0) != 0 {
		t.Error("relDiff(0,0) != 0")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	root := tr.add("packet", 0, 100, -1, 1)
	tr.add("gen.send", 10, 30, root, 1)
	tr.add("transit", 25, 80, root, 1) // overlaps gen.send by 5
	self := tr.selfTimes()
	if self["packet"] != 30 { // 100 − |[10,80]|
		t.Errorf("packet self time %d, want 30", self["packet"])
	}
	if self["gen.send"] != 20 || self["transit"] != 55 {
		t.Errorf("leaf self times %d, %d; want 20, 55", self["gen.send"], self["transit"])
	}
	var none *tracer
	if none.add("x", 0, 1, -1, 0) != -1 || len(none.selfTimes()) != 0 {
		t.Error("nil tracer is not a no-op")
	}
}

func TestJoinBoundsAreContiguous(t *testing.T) {
	// The edge installed before Flush returned to the caller.
	b := joinSpans{call: 100, ret: 130, edge: 120, core: 600, first: 650}.bounds()
	if b != [5]int64{100, 120, 120, 600, 650} {
		t.Errorf("bounds %v", b)
	}
	sum := int64(0)
	for k := 0; k < 4; k++ {
		if b[k+1] < b[k] {
			t.Fatalf("span %d negative: %v", k, b)
		}
		sum += b[k+1] - b[k]
	}
	if sum != 550 {
		t.Errorf("spans sum to %d, want the join's 550", sum)
	}
	// No observers (untraced): everything after the call is one span.
	if b := (joinSpans{call: 100, ret: 130, first: 650}).bounds(); b[4]-b[0] != 550 {
		t.Errorf("unobserved bounds %v", b)
	}
}

func TestSpreadOf(t *testing.T) {
	if got := spreadOf([]float64{100, 110}, false); math.Abs(got-10.0/105) > 1e-12 {
		t.Errorf("pair spread %v", got)
	}
	if got := spreadOf([]float64{121, 97, 125}, true); math.Abs(got-4.0/123) > 1e-12 {
		t.Errorf("spread without the low outlier %v", got)
	}
	if got := spreadOf([]float64{34, 41, 35}, true); math.Abs(got-1/34.5) > 1e-12 {
		t.Errorf("spread without the high outlier %v", got)
	}
}
