package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dataplane"
	"repro/internal/obs"
)

// outcome is everything one run of one workload produced.
type outcome struct {
	Workload  string
	Seed      int64
	Attempted uint64             // operations whose result was checked
	Failed    uint64             // of those, the ones that failed a check
	Invalid   []string           // reasons the run measured the generator or sink, not the router
	Metrics   map[string]float64 // by name; units in metrics.go
	Notes     []string           // human-readable lines printed with the result
}

func (o *outcome) note(format string, a ...any) { o.Notes = append(o.Notes, fmt.Sprintf(format, a...)) }
func (o *outcome) invalid(format string, a ...any) {
	o.Invalid = append(o.Invalid, fmt.Sprintf(format, a...))
}

// book adds a closed phase's checks to the outcome.
func (o *outcome) book(name string, ph *phase, sent uint64) {
	o.Attempted += sent * uint64(ph.fanout)
	if v := ph.violations(sent); v != 0 {
		o.Failed += v
		o.note("%s: %d failed checks: missing %d, beyond fan-out %d, corrupt %d, wrong address %d",
			name, v, ph.ledger.missing(sent, ph.fanout), ph.dups, ph.corrupt, ph.wrongAddr)
	}
}

func share(seconds, part float64) time.Duration {
	return time.Duration(seconds * part * float64(time.Second))
}

// setupReps builds the topology repeatedly — at least 3 times, up to 9
// while the repeats stay within a 2 s budget — and reports the median set-up
// time; the last instance is the one measured.
func (h *harness) setupReps(sp spec, seed int64, tr *tracer, o *outcome) (*env, error) {
	var times []float64
	var total time.Duration
	for {
		e, d, err := h.setup(sp, seed, tr)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		total += d
		if tr != nil || len(times) >= 9 || (len(times) >= 3 && total > 2*time.Second) {
			o.Metrics["setup_s"] = median(append([]float64(nil), times...))
			o.note("setup_s: median of %d set-ups %v", len(times), fmtFloats(times))
			return e, nil
		}
		h.retire(e)
	}
}

// retire closes an env, first booking what its edge wrote to the sink so
// the end-of-run sink-loss check can balance the books.
func (h *harness) retire(e *env) {
	if e.retired {
		return
	}
	e.retired = true
	h.detach()
	h.routerSent += e.edge.DataPlane().Stats().Sent
	e.close()
}

func fmtFloats(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

// ceilingShare is the share of the generator's own ceiling (the same packets
// sent straight to the sink, one datagram per source packet, fastest slice)
// beyond which a capacity figure is taken to measure the generator.
const ceilingShare = 0.9

// closeBooks ends a run: datagrams the sink could not attribute are
// failures, and the sink's receipts must balance what the routers and the
// generator wrote to it — numbers must measure the router, not the sink.
func (h *harness) closeBooks(o *outcome) {
	h.mu.Lock()
	rx, bad, stale := h.rx, h.badRecv, h.stale
	h.mu.Unlock()
	if bad > 0 {
		o.Failed += bad
		o.note("%d datagrams at the sink did not decode or carried no known phase and pattern", bad)
	}
	if stale > 0 {
		o.note("%d copies arrived after their phase had closed (written off there)", stale)
	}
	if want := h.routerSent + h.directSent; rx+h.excused < want {
		o.invalid("sink lost %d of %d datagrams written to it (router Stats.Sent + direct sends > received), beyond the %d lost in voided windows",
			want-rx-h.excused, want, h.excused)
	}
}

// runFwd is the untraced run of a fwd-* workload: set-up, the generator's
// ceiling, then the capacity phase (closed loop) and the latency phase
// (open loop at the workload's fixed rate).
func runFwd(sp spec, seed int64, seconds float64) (*outcome, error) {
	o := &outcome{Workload: sp.name, Seed: seed, Metrics: map[string]float64{}}
	h, err := newHarness(seed)
	if err != nil {
		return nil, err
	}
	defer h.close()
	var draws []uint32
	if sp.zipfS > 0 {
		draws = zipfDraws(seed, 0, sp.zipfS, sp.routes)
	}
	e, err := h.setupReps(sp, seed, nil, o)
	if err != nil {
		return nil, err
	}
	defer h.retire(e)
	pick := e.pickData(draws)

	if _, err := h.closedPhase(e, o, "warm-up", share(seconds, 0.08), pick, false); err != nil {
		return nil, err
	}
	ceil, err := h.closedPhase(e, o, "ceiling", share(seconds, 0.05), pick, true)
	if err != nil {
		return nil, err
	}
	before := e.core.DataPlane().Stats()
	capa, err := h.closedPhase(e, o, "capacity", share(seconds, 0.40), pick, false)
	if err != nil {
		return nil, err
	}
	lat, paced, err := h.pacedPhase(e, o, "latency", sp.rate, share(seconds, 0.47), pick, false)
	if err != nil {
		return nil, err
	}
	d := statsDelta(before, e.core.DataPlane().Stats())

	o.Metrics["rate_per_s"] = capa.PPS
	o.Metrics["lat_p50_us"] = lat.P50 / 1e3
	o.note("fwd_pps %.0f source packets/s (closed loop ≤%d copies in flight, %d packets in %.2f s, %d copies written off); "+
		"gen_ceiling_pps %.0f; proc.cpu_us_per_pkt %.2f (generator and sink included)",
		capa.PPS, inFlightCopies, capa.Sent, capa.Elapsed.Seconds(), capa.WrittenOff, ceil.PeakPPS,
		float64(capa.CPU.Microseconds())/float64(capa.Sent))
	o.note("owd at %.0f pps open loop: p50 %.1f µs, p90 %.1f µs, p99 %.1f µs%s, max %.0f µs (median of %d windows, %d samples); gen_late_p99 %.1f µs",
		sp.rate, lat.P50/1e3, lat.P90/1e3, lat.P99/1e3, p999Note(lat), lat.Max/1e3, lat.Windows, lat.Samples, paced.LateP99/1e3)

	if capa.PPS > ceilingShare*ceil.PeakPPS {
		o.invalid("fwd_pps %.0f > %.1f × gen_ceiling_pps %.0f: the generator, not the router, is the limit", capa.PPS, ceilingShare, ceil.PeakPPS)
	}
	if sp.sr {
		offered := capa.Sent + paced.Sent
		if d.SRForwarded != offered || d.SRFallback != 0 || d.SRBad != 0 || d.FIBLookups != 0 {
			o.Failed++
			o.note("source-routed mode: SRForwarded %d of %d offered, SRFallback %d, SRBad %d, FIB lookups %d (want all offered, 0, 0, 0)",
				d.SRForwarded, offered, d.SRFallback, d.SRBad, d.FIBLookups)
		}
		o.Attempted++
	}
	h.retire(e)
	h.closeBooks(o)
	return o, nil
}

func p999Note(w windowed) string {
	if w.P999 == 0 {
		return ""
	}
	return fmt.Sprintf(", p99.9 %.1f µs", w.P999/1e3)
}

// closedPhase runs one closed-loop phase and books its checks.
func (h *harness) closedPhase(e *env, o *outcome, name string, dur time.Duration, pick picker, direct bool) (closedResult, error) {
	ph := e.dataPhase(direct)
	h.begin(ph)
	res, err := h.runClosed(ph, dur, pick)
	h.end()
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	h.spansOf(name, ph)
	if direct {
		// Nothing but the kernel sits between generator and sink here, so
		// a missing copy is the sink's loss and shows in closeBooks.
		h.directSent += res.Sent * uint64(ph.fanout)
		return res, nil
	}
	o.book(name, ph, res.Sent)
	return res, nil
}

// pacedPhase runs one open-loop phase, cut into windows of about a second.
// Through a router (o != nil) each window is judged on its own: voided
// windows (see windowHealth.void) are reported and left out, the rest give
// the latency figures and are booked; fewer than half of them clean makes
// the run invalid.
func (h *harness) pacedPhase(e *env, o *outcome, name string, rate float64, dur time.Duration, pick picker, direct bool) (windowed, pacedResult, error) {
	ph := e.dataPhase(direct)
	h.begin(ph)
	windows := max(3, int(dur/time.Second))
	res, err := h.runPaced(ph, rate, dur, windows, pick, false)
	h.end()
	if err != nil {
		return windowed{}, res, fmt.Errorf("%s: %w", name, err)
	}
	h.spansOf(name, ph)
	if direct {
		h.directSent += res.Sent * uint64(ph.fanout)
	}
	if direct || o == nil {
		return summarizeWindows(ph.wins), res, nil
	}

	health := make([]windowHealth, windows)
	late := make([][]int64, windows)
	first := make([]uint64, windows+1) // window w holds source packets first[w]..first[w+1]-1
	for i := uint64(0); i < res.Sent; i++ {
		w := int64(float64(i)*1e9/rate) / ph.winLen
		if health[w].Sent == 0 {
			first[w] = i
		}
		health[w].Sent++
		late[w] = append(late[w], res.late[i])
	}
	first[windows] = res.Sent
	var clean [][]int64
	var sent uint64
	for w := range health {
		hw := &health[w]
		hw.Missing = ph.ledger.missingIn(first[w], first[w]+hw.Sent, ph.fanout)
		slices.Sort(late[w])
		hw.LateP99 = percentile(late[w], 0.99)
		if len(ph.wins[w]) > 0 {
			hw.MaxLat = slices.Max(ph.wins[w])
		}
		if why := hw.void(); why != "" {
			o.note("%s: window %d of %d void (%s): slowest copy %.1f ms, %d copies missing, gen_late_p99 %.0f µs",
				name, w+1, windows, why, float64(hw.MaxLat)/1e6, hw.Missing, float64(hw.LateP99)/1e3)
			h.excused += hw.Missing
			continue
		}
		clean = append(clean, ph.wins[w])
		sent += hw.Sent
		o.Failed += hw.Missing
		if hw.Missing > 0 {
			o.note("%s: window %d: %d copies missing with no stall beside them", name, w+1, hw.Missing)
		}
	}
	o.Attempted += sent * uint64(ph.fanout)
	if v := ph.corrupt + ph.wrongAddr + ph.dups; v != 0 {
		o.Failed += v
		o.note("%s: %d failed checks: beyond fan-out %d, corrupt %d, wrong address %d", name, v, ph.dups, ph.corrupt, ph.wrongAddr)
	}
	if 2*len(clean) < windows {
		o.invalid("%s: only %d of %d windows usable; the box stalled or the generator fell behind too often", name, len(clean), windows)
	}
	return summarizeWindows(clean), res, nil
}

// planeDelta is the change of a plane's counters across an interval.
type planeDelta struct {
	Packets, Replicated, Sent, Drops, WriteErrors uint64
	SRForwarded, SRFallback, SRBad                uint64
	FIBLookups, FIBMatched                        uint64
}

func statsDelta(a, b dataplane.Stats) planeDelta {
	return planeDelta{
		Packets: b.Packets - a.Packets, Replicated: b.Replicated - a.Replicated, Sent: b.Sent - a.Sent,
		Drops: b.Drops - a.Drops, WriteErrors: b.WriteErrors - a.WriteErrors,
		SRForwarded: b.SRForwarded - a.SRForwarded, SRFallback: b.SRFallback - a.SRFallback, SRBad: b.SRBad - a.SRBad,
		FIBLookups: b.FIB.Lookups - a.FIB.Lookups, FIBMatched: b.FIB.Matched - a.FIB.Matched,
	}
}

// histMeanDelta is the mean of the observations a histogram took between
// two snapshots.
func histMeanDelta(a, b obs.Snapshot, name string) float64 {
	ha, hb := a.Histograms[name], b.Histograms[name]
	if hb.Count == ha.Count {
		return 0
	}
	return float64(hb.Sum-ha.Sum) / float64(hb.Count-ha.Count)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
