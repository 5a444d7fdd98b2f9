package main

import (
	"fmt"
	"sort"
	"time"
)

// The traced run (-trace 1): per-layer metrics only. It times each layer's
// public calls on the workload's bytes (layers.go), then repeats the
// workload's phases — shorter — with spans recorded around the harness's
// own calls and with the routers' counters read across each phase. An
// untraced and a traced capacity phase in the same process give the tracing
// overhead. End-to-end metrics are never taken from this run.

// sampleEvery is the 1-in-N of per-packet spans; maxSamples bounds them per
// phase.
const (
	sampleEvery = 128
	maxSamples  = 1 << 14
)

// pktSample is one sampled source packet's timeline. The sender writes the
// first three fields, the sink the last two.
type pktSample struct {
	due, sendStart, sendEnd int64
	first, last             int64 // first and last copy at the sink
}

// spansOf turns a closed phase's samples into spans: one per phase, and per
// sampled packet a parent (due → last copy) over gen.wait (due → send),
// gen.send (the write call), transit (write returned → first copy: kernel,
// router, kernel — not separable from outside) and fanout.tail (first →
// last copy).
func (h *harness) spansOf(name string, ph *phase) {
	if h.tr == nil {
		return
	}
	root := h.tr.add(name, ph.began, ph.ended, -1, uint64(ph.id))
	for k := range ph.samples {
		s := &ph.samples[k]
		if s.first == 0 || s.sendEnd == 0 {
			continue
		}
		req := uint64(ph.id)<<32 | uint64(k*sampleEvery)
		p := h.tr.add("packet", s.due, s.last, root, req)
		h.tr.add("gen.wait", s.due, s.sendStart, p, req)
		h.tr.add("gen.send", s.sendStart, s.sendEnd, p, req)
		h.tr.add("transit", s.sendEnd, s.first, p, req)
		if s.last > s.first {
			h.tr.add("fanout.tail", s.first, s.last, p, req)
		}
	}
}

// dpCounters books the plane- and FIB-level counters of the interval
// between two snapshots of the router the source injects at.
func dpCounters(o *outcome, e *env, offered uint64, run func() error) error {
	dp := e.core.DataPlane()
	s0, o0 := dp.Stats(), e.core.Obs().Snapshot()
	if err := run(); err != nil {
		return err
	}
	d, o1 := statsDelta(s0, dp.Stats()), e.core.Obs().Snapshot()
	o.Metrics["dp.rx_batch_mean"] = histMeanDelta(o0, o1, "dp_ingest_batch_size")
	o.Metrics["dp.tx_burst_mean"] = histMeanDelta(o0, o1, "dp_egress_burst_size")
	o.Metrics["dp.drop_ratio"] = ratio(d.Drops, d.Replicated)
	o.Metrics["dp.ingress_lost"] = float64(int64(offered) - int64(d.Packets))
	o.Metrics["fib.lookups"] = float64(d.FIBLookups)
	o.Metrics["fib.hit_ratio"] = ratio(d.FIBMatched, d.FIBLookups)
	return nil
}

// traceFwd is the traced run of a fwd-* workload.
func traceFwd(sp spec, seed int64, seconds float64) (*outcome, *tracer, error) {
	o := &outcome{Workload: sp.name, Seed: seed, Metrics: map[string]float64{}}
	tr := &tracer{}
	h, err := newHarness(seed)
	if err != nil {
		return nil, nil, err
	}
	defer h.close()
	var draws []uint32
	if sp.zipfS > 0 {
		draws = zipfDraws(seed, 0, sp.zipfS, sp.routes)
	}
	if err := h.measureLayers(sp, seed, draws, tr, o); err != nil {
		return nil, nil, err
	}
	e, err := h.setupReps(sp, seed, tr, o)
	if err != nil {
		return nil, nil, err
	}
	defer h.retire(e)
	pick := e.pickData(draws)

	ceil, err := h.closedPhase(e, o, "ceiling", share(seconds, 0.04), pick, true)
	if err != nil {
		return nil, nil, err
	}
	loop, _, err := h.pacedPhase(e, o, "loopback", sp.rate, share(seconds, 0.08), pick, true)
	if err != nil {
		return nil, nil, err
	}
	if _, err := h.closedPhase(e, o, "warm-up", share(seconds, 0.04), pick, false); err != nil {
		return nil, nil, err
	}
	plain, err := h.closedPhase(e, o, "capacity", share(seconds, 0.10), pick, false)
	if err != nil {
		return nil, nil, err
	}
	h.tr = tr
	traced, err := h.closedPhase(e, o, "capacity.traced", share(seconds, 0.10), pick, false)
	if err != nil {
		return nil, nil, err
	}
	var lat windowed
	var gen pacedResult
	if err := dpCounters(o, e, uint64(sp.rate*share(seconds, 0.20).Seconds()), func() (err error) {
		lat, gen, err = h.pacedPhase(e, o, "latency.traced", sp.rate, share(seconds, 0.20), pick, false)
		return err
	}); err != nil {
		return nil, nil, err
	}
	h.tr = nil

	m := o.Metrics
	m["gen.ceiling_pps"] = ceil.PeakPPS
	m["gen.late_p99_us"] = gen.LateP99 / 1e3
	m["loop.owd_p50_us"] = loop.P50 / 1e3
	m["proc.cpu_us_per_pkt"] = float64(plain.CPU.Microseconds()) / float64(plain.Sent)
	m["trace.rate_per_s"] = traced.PPS
	m["trace.lat_p50_us"] = lat.P50 / 1e3
	m["trace.lat_p99_us"] = lat.P99 / 1e3
	m["trace.lat_p999_us"] = lat.P999 / 1e3
	m["trace.samples"] = float64(lat.Samples)
	m["trace.overhead_pct"] = 100 * (1 - traced.PPS/plain.PPS)
	m["dp.router_added_us"] = m["trace.lat_p50_us"] - m["loop.owd_p50_us"]
	m["dp.residual_us"] = m["dp.router_added_us"] - m["dp.handle_ns"]/1e3
	if sp.sr && m["fib.lookups"] != 0 {
		o.Failed++
		o.note("source-routed mode consulted the FIB %d times; want 0", int(m["fib.lookups"]))
	}
	o.note("capacity %.0f pps untraced, %.0f pps traced: tracing overhead %.1f %%", plain.PPS, traced.PPS, m["trace.overhead_pct"])
	o.note("owd p50 %.1f µs = loopback without a router %.1f + router-added %.1f, of which HandlePacket accounts for %.2f and %.1f is unaccounted (kernel, syscalls, queue wait, goroutine hand-off)",
		m["trace.lat_p50_us"], m["loop.owd_p50_us"], m["dp.router_added_us"], m["dp.handle_ns"]/1e3, m["dp.residual_us"])

	if err := h.lossFreeSearch(e, o, plain.PPS, seconds, pick); err != nil {
		return nil, nil, err
	}
	h.retire(e)
	h.closeBooks(o)
	return o, tr, nil
}

// lossFreeSearch is the report-only RFC-2544 ladder: binary search over a
// 5 % geometric ladder of paced rates for the highest with zero
// router-attributed loss (egress drops + write errors + datagrams offered
// but never ingested), confirmed by one longer trial, then the loss ratio at
// 1.5× and 2× that rate. It is not an end-to-end gate: a zero-loss threshold
// on two shared cores flips on a single scheduler stall.
func (h *harness) lossFreeSearch(e *env, o *outcome, capacity, seconds float64, pick picker) error {
	dp := e.core.DataPlane()
	// trial offers rate for dur and returns the router-attributed loss, the
	// share of copies that never reached the sink, and whether the generator
	// fell behind. Copies the sink's own socket dropped under the flood are
	// expected here and excused from the end-of-run books.
	trial := func(rate float64, dur time.Duration) (lost uint64, lossRatio float64, limited bool, err error) {
		ph := e.dataPhase(false)
		h.begin(ph)
		s0 := dp.Stats()
		res, err := h.runPaced(ph, rate, dur, 1, pick, false)
		h.end()
		if err != nil {
			return 0, 0, false, err
		}
		d := statsDelta(s0, dp.Stats())
		arrived := ph.recvd.Load() + ph.dups + ph.corrupt + ph.wrongAddr
		h.excused += d.Sent - min(d.Sent, arrived)
		lost = d.Drops + d.WriteErrors + (res.Sent - min(res.Sent, d.Packets))
		limited = res.Achieved < 0.98*rate || res.LateP99 > float64(time.Millisecond)
		want := res.Sent * uint64(ph.fanout)
		return lost, ratio(want-min(want, ph.recvd.Load()), want), limited, nil
	}
	rungs := rateLadder(0.2*capacity, 1.25*capacity, 1.05)
	short, long := share(seconds, 0.04), share(seconds, 0.10)
	var searchErr error
	genLimit := 0.0
	best := searchLadder(len(rungs), func(i int) bool {
		if searchErr != nil {
			return false
		}
		lost, _, limited, err := trial(rungs[i], short)
		if err == nil && lost != 0 && !limited {
			// One retry: on this box a single stall fails a rung that the
			// router would otherwise pass, and would send the search down.
			lost, _, limited, err = trial(rungs[i], short)
		}
		searchErr = err
		if limited && (genLimit == 0 || rungs[i] < genLimit) {
			genLimit = rungs[i]
		}
		return err == nil && lost == 0 && !limited
	})
	if searchErr != nil {
		return searchErr
	}
	// Confirm over the longer trial, stepping down a rung on failure, at
	// most three times; unconfirmed, the searched rung is reported as such.
	confirmed := false
	for tries, rung := 0, best; rung >= 0 && tries < 3 && !confirmed; tries, rung = tries+1, rung-1 {
		lost, _, limited, err := trial(rungs[rung], long)
		if err != nil {
			return err
		}
		if confirmed = lost == 0 && !limited; confirmed {
			best = rung
		}
	}
	m := o.Metrics
	m["lossfree.search_pps"] = 0
	m["lossfree.confirmed"] = 0
	if confirmed {
		m["lossfree.confirmed"] = 1
	}
	if best >= 0 {
		m["lossfree.search_pps"] = rungs[best]
		for _, x := range []struct {
			mult float64
			name string
		}{{1.5, "lossfree.loss_at_1.5x"}, {2, "lossfree.loss_at_2x"}} {
			_, lossRatio, _, err := trial(x.mult*rungs[best], short)
			if err != nil {
				return err
			}
			m[x.name] = lossRatio
		}
	}
	note := ""
	if genLimit > 0 {
		note = fmt.Sprintf("; the generator could not keep its schedule from %.0f pps up, so rungs there count as failed", genLimit)
	}
	o.note("lossfree.search_pps %.0f (ladder %.0f…%.0f pps in 5 %% steps, %v trials, confirmed=%v over %v); loss ratio %.4f at 1.5×, %.4f at 2×%s",
		m["lossfree.search_pps"], rungs[0], rungs[len(rungs)-1], short, confirmed, long, m["lossfree.loss_at_1.5x"], m["lossfree.loss_at_2x"], note)
	return nil
}

// traceCtl is the traced run of ctl-join-churn-2hop.
func traceCtl(sp spec, seed int64, seconds float64) (*outcome, *tracer, error) {
	o := &outcome{Workload: sp.name, Seed: seed, Metrics: map[string]float64{}}
	tr := &tracer{}
	h, err := newHarness(seed)
	if err != nil {
		return nil, nil, err
	}
	defer h.close()
	if err := h.measureLayers(sp, seed, nil, tr, o); err != nil {
		return nil, nil, err
	}
	e, err := h.setupReps(sp, seed, tr, o)
	if err != nil {
		return nil, nil, err
	}
	defer h.retire(e)

	ceil, err := h.closedPhase(e, o, "ceiling", share(seconds, 0.04), e.pickData(nil), true)
	if err != nil {
		return nil, nil, err
	}
	loop, _, err := h.pacedPhase(e, o, "loopback", sp.rate, share(seconds, 0.06), e.pickData(nil), true)
	if err != nil {
		return nil, nil, err
	}
	plain, err := h.runJoins(e, share(seconds, 0.15), false, o, "joins")
	if err != nil {
		return nil, nil, err
	}
	h.tr = tr
	obs, err := h.runJoins(e, share(seconds, 0.30), true, o, "joins.traced")
	if err != nil {
		return nil, nil, err
	}
	h.tr = nil

	m := o.Metrics
	m["gen.ceiling_pps"] = ceil.PeakPPS
	m["gen.late_p99_us"] = obs.paced.LateP99 / 1e3
	m["loop.owd_p50_us"] = loop.P50 / 1e3
	m["trace.lat_p50_us"] = obs.lat.P50 / 1e3
	m["trace.lat_p99_us"] = obs.lat.P99 / 1e3
	m["trace.samples"] = float64(obs.lat.Samples)
	m["trace.overhead_pct"] = 100 * (obs.lat.P50/plain.lat.P50 - 1)
	joinSpanMetrics(o, tr, obs.joins)
	o.note("join p50 %.1f µs with plain routers, %.1f µs with route observers stamping each hop: tracing overhead %.1f %%",
		plain.lat.P50/1e3, obs.lat.P50/1e3, m["trace.overhead_pct"])

	es0 := e.edge.Stats()
	var cr churnResult
	if err := dpCounters(o, e, uint64(sp.rate*share(seconds, 0.40).Seconds()), func() (err error) {
		cr, err = h.runChurn(e, seed, share(seconds, 0.40), o)
		return err
	}); err != nil {
		return nil, nil, err
	}
	es1 := e.edge.Stats()
	m["rn.coalesce_ratio"] = ratio(es1.UpstreamCounts-es0.UpstreamCounts, es1.Events-es0.Events)
	m["rn.up_segments"] = float64(es1.UpstreamSegments - es0.UpstreamSegments)
	m["rn.up_drops"] = float64(es1.UpstreamDrops - es0.UpstreamDrops)
	m["trace.rate_per_s"] = cr.perSec
	m["ctl.stream_owd_p50_us"] = cr.stream.P50 / 1e3
	m["ctl.stream_owd_p99_us"] = cr.stream.P99 / 1e3
	m["dp.router_added_us"] = m["ctl.stream_owd_p50_us"] - m["loop.owd_p50_us"]
	m["dp.residual_us"] = m["dp.router_added_us"] - 2*m["dp.handle_ns"]/1e3 // two hops
	o.note("churn %.0f events/s; edge coalesced %d events into %d upstream Counts in %d segments (%d dropped); stream owd p50 %.1f µs across two hops vs %.1f µs loopback",
		cr.perSec, es1.Events-es0.Events, es1.UpstreamCounts-es0.UpstreamCounts, int(m["rn.up_segments"]), int(m["rn.up_drops"]),
		m["ctl.stream_owd_p50_us"], m["loop.owd_p50_us"])
	h.retire(e)
	h.closeBooks(o)
	return o, tr, nil
}

// joinSpanMetrics reports the four contiguous spans of a join — call,
// edge install, upstream propagation, first packet — as their means over the
// joins whose total lies between the 45th and 55th percentile, so that they
// sum to the median join latency (medians of the parts would not add up).
// Every join's spans go to the trace.
func joinSpanMetrics(o *outcome, tr *tracer, joins []joinSpans) {
	if len(joins) == 0 {
		return
	}
	byTotal := append([]joinSpans(nil), joins...)
	sort.Slice(byTotal, func(a, b int) bool {
		return byTotal[a].first-byTotal[a].call < byTotal[b].first-byTotal[b].call
	})
	mid := byTotal[len(byTotal)*45/100 : len(byTotal)*55/100+1]
	var sum [4]float64
	for _, j := range mid {
		b := j.bounds()
		for k := range sum {
			sum[k] += float64(b[k+1] - b[k])
		}
	}
	names := [4]string{"rn.sub_call_us", "rn.edge_install_us", "rn.up_prop_us", "rn.first_pkt_us"}
	total := 0.0
	for k, name := range names {
		o.Metrics[name] = sum[k] / float64(len(mid)) / 1e3
		total += o.Metrics[name]
	}
	o.note("join spans (mean over the %d joins between p45 and p55): sub_call %.1f + edge_install %.1f + up_prop %.1f + first_pkt %.1f = %.1f µs; traced join p50 %.1f µs (%.1f %% apart)",
		len(mid), o.Metrics[names[0]], o.Metrics[names[1]], o.Metrics[names[2]], o.Metrics[names[3]], total,
		o.Metrics["trace.lat_p50_us"], 100*relDiff(total, o.Metrics["trace.lat_p50_us"]))
	for i, j := range joins {
		b := j.bounds()
		root := tr.add("join", b[0], b[4], -1, uint64(i))
		for k, name := range names {
			tr.add(name[:len(name)-3], b[k], b[k+1], root, uint64(i))
		}
	}
}

// bounds orders a join's five timestamps into contiguous span boundaries:
// a hop that installed before the previous boundary was stamped (the edge
// can apply the Count before Flush returns to the caller) gets a zero-length
// span instead of a negative one.
func (j joinSpans) bounds() [5]int64 {
	b := [5]int64{j.call, j.ret, j.edge, j.core, j.first}
	b[1] = min(b[1], b[2]) // the call span ends when the edge has installed, if that is sooner
	for k := 1; k < 5; k++ {
		b[k] = min(max(b[k], b[k-1]), j.first)
	}
	return b
}
