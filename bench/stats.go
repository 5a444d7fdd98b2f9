package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the samples at or
// below it. It reads an actual sample, never an interpolation, so a reported
// p99 is a latency some packet really had. 0 when sorted is empty.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median is the middle of vals (mean of the two middle values when even).
// vals is reordered.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// windowed summarises latency samples that were cut into equal time windows
// by when each sample was due. The reported percentile is the median of the
// per-window percentiles, so one scheduler stall, which lands in one window,
// does not move it. Windows are sorted in place.
type windowed struct {
	P50, P90, P99 float64 // median over windows of the per-window percentile, ns
	P999          float64 // over all samples; 0 unless ≥10 samples lie beyond it
	Max           float64
	Samples       int
	Windows       int // windows that held samples
}

func summarizeWindows(wins [][]int64) windowed {
	var w windowed
	var p50s, p90s, p99s []float64
	var all []int64
	for _, win := range wins {
		if len(win) == 0 {
			continue
		}
		sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
		p50s = append(p50s, float64(percentile(win, 0.50)))
		p90s = append(p90s, float64(percentile(win, 0.90)))
		p99s = append(p99s, float64(percentile(win, 0.99)))
		all = append(all, win...)
		w.Max = max(w.Max, float64(win[len(win)-1]))
		w.Samples += len(win)
		w.Windows++
	}
	w.P50, w.P90, w.P99 = median(p50s), median(p90s), median(p99s)
	if w.Samples >= 10_000 { // 0.1 % of 10 000 = the ten samples beyond p99.9
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		w.P999 = float64(percentile(all, 0.999))
	}
	return w
}

// windowHealth is what decides whether one window of an open-loop phase
// says anything about the router.
type windowHealth struct {
	Sent    uint64 // source packets due in the window
	Missing uint64 // copies of them that never arrived
	MaxLat  int64  // slowest copy, ns
	LateP99 int64  // generator lateness, ns
}

// stall is the delay that marks a window as hit by a freeze of the box
// rather than by the router: several hundred times a median trip, and at the
// workloads' rates about what it takes to fill a 1024-deep egress queue or
// the sink's socket buffer.
const stall = 10 * time.Millisecond

// maxLate is the generator lateness (p99 within the window) beyond which a
// window times the generator, not the router.
const maxLate = time.Millisecond

// void reports why a window is left out of both the latency figures and the
// failure count, or "" when it counts. Two things void a window: a generator
// behind its schedule, and lost copies beside a stall. On a shared two-core
// box the host now and then freezes a thread for tens of milliseconds; the
// router's ingest worker then pours the backlog into the bounded egress
// queue faster than the writer drains it, or the sink's socket buffer
// overflows, and the loss is the box's doing. Copies lost with no stall
// beside them are failures.
func (w windowHealth) void() string {
	switch {
	case w.LateP99 > int64(maxLate):
		return "generator late"
	case w.Missing > 0 && w.MaxLat >= int64(stall):
		return "copies lost beside a stall"
	}
	return ""
}

// copyLedger is the sink's window accounting: how many copies of each
// source-packet index arrived. It grows on demand and is owned by the sink
// goroutine until the phase is closed.
type copyLedger struct {
	counts []uint8
}

// add records one arriving copy of index i and reports whether it went
// beyond want copies (a duplicate the router must never produce).
func (l *copyLedger) add(i uint64, want int) (dup bool) {
	for uint64(len(l.counts)) <= i {
		if len(l.counts) < cap(l.counts) {
			l.counts = l.counts[:min(cap(l.counts), 2*len(l.counts)+1024)]
		} else {
			l.counts = append(l.counts, make([]uint8, len(l.counts)+1024)...)
		}
	}
	if int(l.counts[i]) >= want {
		return true
	}
	l.counts[i]++
	return false
}

// missing returns how many copies of indices [0, sent) never arrived.
func (l *copyLedger) missing(sent uint64, want int) uint64 { return l.missingIn(0, sent, want) }

// missingIn is missing over indices [from, to).
func (l *copyLedger) missingIn(from, to uint64, want int) uint64 {
	var miss uint64
	for i := from; i < to; i++ {
		got := 0
		if i < uint64(len(l.counts)) {
			got = int(l.counts[i])
		}
		miss += uint64(want - got)
	}
	return miss
}

// rateLadder is the RFC-2544-style search grid: rates from lo to hi (both
// included, approximately) in geometric steps of factor step.
func rateLadder(lo, hi, step float64) []float64 {
	var out []float64
	for r := lo; r <= hi*1.0001; r *= step {
		out = append(out, math.Round(r))
	}
	return out
}

// searchLadder binary-searches rungs 0..n-1 for the highest one that passes,
// assuming rungs pass up to some point and fail beyond it. It returns -1
// when rung 0 already fails, and calls pass at most ⌈log2(n)⌉+1 times.
func searchLadder(n int, pass func(i int) bool) int {
	lo, hi := -1, n // invariant: lo passes (or is -1), hi fails (or is n)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// relDiff is |a−b| as a share of their mean; 0 when both are 0.
func relDiff(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
