package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/realnet"
)

// The control-path workload: a two-level tree (source → core → edge → sink)
// holding 100 000 background routes. Phase A measures one join at a time;
// phase B streams membership toggles into the edge beside a data stream.

const (
	joinProbeRate = 50_000 // pps the source offers each fresh channel at: 20 µs resolution
	joinTimeout   = time.Second
	maxJoins      = 1 << 16
	churnZipfS    = 1.2
	convergeWait  = 10 * time.Second
	churnSlices   = 8
)

// joinSpans are the boundaries of one join on the benchmark clock. The four
// rn.* spans are the gaps between consecutive boundaries, so they sum to the
// join's latency exactly.
type joinSpans struct {
	call, ret, edge, core, first int64
}

// joinResult is phase A's outcome.
type joinResult struct {
	lat      windowed
	joins    []joinSpans // completed joins, in order
	timeouts int
	paced    pacedResult // the probe stream's generator
}

// runJoins is phase A: until dur has passed, subscribe a fresh channel at
// the edge through session 0 and time from just before Subscribe+Flush to
// the channel's first datagram at the sink, one join at a time, while the
// source offers that channel to the core at joinProbeRate. With observe set
// the routers' route observers stamp when each hop installed the route.
func (h *harness) runJoins(e *env, dur time.Duration, observe bool, o *outcome, name string) (joinResult, error) {
	var res joinResult
	base := e.spec.joinBase()
	ph := &phase{
		fanout: 1, payloadLen: e.spec.payload,
		expect: func(ci uint32) (addr.Channel, bool) {
			return e.cs.at(int(ci)), ci >= base || int(ci) < e.spec.installed()
		},
		joinBase: base, joinSeen: make([]int64, maxJoins), joinCh: make(chan uint32, 1),
	}
	var edgeAt, coreAt []atomic.Int64
	if observe {
		edgeAt, coreAt = make([]atomic.Int64, maxJoins), make([]atomic.Int64, maxJoins)
		stamp := func(slots []atomic.Int64) func(addr.Channel, uint32) {
			return func(ch addr.Channel, mask uint32) {
				if j := e.cs.index(ch) - int(base); mask != 0 && j >= 0 && j < maxJoins {
					slots[j].Store(h.now())
				}
			}
		}
		e.edge.SetRouteObserver(stamp(edgeAt))
		e.core.SetRouteObserver(stamp(coreAt))
		defer e.edge.SetRouteObserver(nil)
		defer e.core.SetRouteObserver(nil)
	}

	var cur, offered atomic.Int64 // join being measured; join the sender last offered
	offered.Store(-1)
	pick := func(uint64) (addr.Channel, uint32) {
		j := cur.Load()
		offered.Store(j)
		return e.cs.at(int(base) + int(j)), base + uint32(j)
	}
	h.begin(ph)
	var senderErr error
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		res.paced, senderErr = h.runPaced(ph, joinProbeRate, dur, 1, pick, false)
	}()
	stopped := func() bool {
		select {
		case <-senderDone:
			return true
		default:
			return false
		}
	}

	s0 := e.sess[0]
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	const nWin = 4
	wins := make([][]int64, nWin)
	start := h.now()
	end := start + int64(dur) - int64(100*time.Millisecond) // the probe stream outlives the last join
joins:
	for j := 0; j < maxJoins && h.now() < end; j++ {
		cur.Store(int64(j))
		for offered.Load() != int64(j) {
			if stopped() {
				break joins
			}
			runtime.Gosched()
		}
		ch := e.cs.at(int(base) + j)
		sp := joinSpans{call: h.now()}
		if err := s0.Subscribe(ch); err != nil {
			return res, err
		}
		if err := s0.Flush(); err != nil {
			return res, err
		}
		sp.ret = h.now()
		timer.Reset(joinTimeout)
		arrived := false
		for !arrived {
			select {
			case jj := <-ph.joinCh:
				arrived = int(jj) == j
			case <-timer.C:
				res.timeouts++
				o.note("%s: join %d of %v: no datagram within %v", name, j, ch, joinTimeout)
				continue joins
			}
		}
		h.mu.Lock()
		sp.first = ph.joinSeen[j]
		h.mu.Unlock()
		if observe {
			sp.edge, sp.core = edgeAt[j].Load(), coreAt[j].Load()
		}
		res.joins = append(res.joins, sp)
		w := (sp.call - start) * nWin / int64(dur)
		wins[w] = append(wins[w], sp.first-sp.call)
		if err := s0.Unsubscribe(ch); err != nil {
			return res, err
		}
		if err := s0.Flush(); err != nil {
			return res, err
		}
	}
	<-senderDone
	h.end()
	if senderErr != nil {
		return res, senderErr
	}
	res.lat = summarizeWindows(wins)
	o.Attempted += uint64(len(res.joins) + res.timeouts)
	o.Failed += uint64(res.timeouts) + ph.violations(0)
	if v := ph.violations(0); v != 0 {
		o.note("%s: %d failed checks: corrupt %d, wrong address %d", name, v, ph.corrupt, ph.wrongAddr)
	}
	// The bounded join percentiles stop at p90, so the probe stream is held
	// to its schedule at p90: on two cores it loses ~2 % of its time to
	// kernel time-slicing against the routers' threads, 4 ms at a time.
	if res.paced.LateP90 > float64(time.Millisecond) {
		o.invalid("%s probe stream: generator ran late: gen_late_p90 %.0f µs > 1000 µs at %d pps", name, res.paced.LateP90/1e3, joinProbeRate)
	}
	return res, nil
}

// index inverts chanSpace.at for channels of this space.
func (c chanSpace) index(ch addr.Channel) int {
	const m = addr.ChannelsPerHost - 1
	return int((ch.E.ExpressSuffix() + m - 1 - c.off%m) % m)
}

// churnResult is phase B's outcome.
type churnResult struct {
	toggles   uint64
	elapsed   time.Duration // first send → core equals the expected final state
	overall   float64       // toggles ÷ elapsed
	perSec    float64       // median slice of the rate the edge applied toggles at while they were sent
	stream    windowed
	paced     pacedResult
	converged bool
}

// runChurn is phase B: sessions 1 and 2 each stream seeded Zipf toggles of
// the background routes they own into the edge as fast as TCP backpressure
// admits for dur, while a stream on channel 0 crosses both hops. It ends
// when the core's state equals the trace's final state, then checks the
// paper's invariants at both routers.
func (h *harness) runChurn(e *env, seed int64, dur time.Duration, o *outcome) (churnResult, error) {
	var res churnResult
	sp := e.spec
	half := sp.routes / 2
	// Session 1+b owns the background channels i ≡ b (mod 2), 1 ≤ i ≤ routes;
	// rank r of its Zipf draw is channel chanOf(b, r).
	chanOf := func(b, r int) int { return 2*r + 2 - b }
	subs := [2][]bool{make([]bool, half), make([]bool, half)}
	draws := [2][]uint32{zipfDraws(seed, 1, churnZipfS, half), zipfDraws(seed, 2, churnZipfS, half)}
	for b := range subs {
		for r := range subs[b] {
			subs[b][r] = true
		}
	}

	ph := e.dataPhase(false)
	h.begin(ph)
	var streamErr error
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		res.paced, streamErr = h.runPaced(ph, sp.rate, dur, max(3, int(dur/(2*time.Second))), e.pickData(nil), true)
	}()

	var wg sync.WaitGroup
	var sent [2]uint64
	var errs [2]error
	start := h.now()
	end := start + int64(dur)
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			s, sub, dr := e.sess[1+b], subs[b], draws[b]
			var n uint64
			for ; n&63 != 0 || h.now() < end; n++ {
				r := dr[n%numDraws]
				ch := e.cs.at(chanOf(b, int(r)))
				var err error
				if sub[r] {
					err = s.Unsubscribe(ch)
				} else {
					err = s.Subscribe(ch)
				}
				if err != nil {
					errs[b] = err
					return
				}
				sub[r] = !sub[r]
			}
			sent[b] = n
			errs[b] = s.Flush()
		}(b)
	}
	// The rate is read off the edge's event counter over churnSlices equal
	// slices of the sending time and the median slice reported, so one slow
	// stretch does not move it; TCP backpressure closes the loop, so what
	// the edge applied is what the sessions could send.
	churned := make(chan struct{})
	go func() { wg.Wait(); close(churned) }()
	var rates []float64
	tick := time.NewTicker(dur / churnSlices)
	sliceAt, sliceEvents := start, e.edge.Events()
sending:
	for {
		select {
		case <-churned:
			break sending
		case <-tick.C:
			now, ev := h.now(), e.edge.Events()
			rates = append(rates, float64(ev-sliceEvents)/(float64(now-sliceAt)/1e9))
			sliceAt, sliceEvents = now, ev
		}
	}
	tick.Stop()
	for _, err := range errs {
		if err != nil {
			return res, fmt.Errorf("churn: %w", err)
		}
	}
	res.toggles = sent[0] + sent[1]

	// want[i] is the trace's final state of installed channel i.
	want := make([]bool, sp.installed())
	want[0] = true
	live := 1
	for b := range subs {
		for r, on := range subs[b] {
			want[chanOf(b, r)] = on
			if on {
				live++
			}
		}
	}
	coreMatches := func() bool {
		if e.core.Channels() != live {
			return false
		}
		for i, on := range want {
			if (e.core.SubscriberCount(e.cs.at(i)) != 0) != on {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(convergeWait)
	for {
		at := h.now()
		if coreMatches() {
			res.converged = true
			res.elapsed = time.Duration(at - start)
			break
		}
		if time.Now().After(deadline) {
			res.elapsed = time.Duration(at - start)
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.overall = float64(res.toggles) / res.elapsed.Seconds()
	res.perSec = median(rates)

	<-streamDone
	h.end()
	if streamErr != nil {
		return res, streamErr
	}
	res.stream = summarizeWindows(ph.wins)
	o.book("churn stream", ph, res.paced.Sent)

	o.Attempted += res.toggles
	bad := e.checkInvariants(want, o)
	o.Attempted += uint64(2 * len(want))
	o.Failed += bad
	if !res.converged {
		o.note("churn: core did not reach the trace's final state within %v", convergeWait)
		if bad == 0 {
			o.Failed++ // late but eventually right is still a failed run
		}
	}
	return res, nil
}

// checkInvariants asserts, at both routers and for every installed channel,
// the paper's guarantees once the tree is quiet: the aggregate count equals
// the live subscribers of the trace, an OIF bit is set iff that branch's
// count is non-zero, and a FIB route exists iff the aggregate is non-zero.
// It returns the number of (router, channel) pairs that break one.
func (e *env) checkInvariants(want []bool, o *outcome) (bad uint64) {
	type hop struct {
		name string
		r    *realnet.Router
		oif  func(i int) uint32 // the one branch channel i's subscriber sits on
	}
	hops := []hop{
		{"edge", e.edge, func(i int) uint32 {
			if i == 0 {
				return 1 << 0
			}
			return 1 << (1 + uint(i)%2)
		}},
		{"core", e.core, func(int) uint32 { return 1 << 0 }},
	}
	for _, hp := range hops {
		for i, on := range want {
			ch := e.cs.at(i)
			var count, mask uint32
			if on {
				count, mask = 1, hp.oif(i)
			}
			route, has := hp.r.DataPlane().Route(ch)
			if got := hp.r.SubscriberCount(ch); got != count || hp.r.OIFMask(ch) != mask || has != on || route != mask {
				if bad < 5 {
					o.note("invariant broken at %s for channel %d %v: count %d (want %d), OIF mask %#x (want %#x), route %#x present=%v",
						hp.name, i, ch, got, count, hp.r.OIFMask(ch), mask, route, has)
				}
				bad++
			}
		}
	}
	return bad
}

// runCtl is the untraced run of ctl-join-churn-2hop.
func runCtl(sp spec, seed int64, seconds float64) (*outcome, error) {
	o := &outcome{Workload: sp.name, Seed: seed, Metrics: map[string]float64{}}
	h, err := newHarness(seed)
	if err != nil {
		return nil, err
	}
	defer h.close()
	e, err := h.setupReps(sp, seed, nil, o)
	if err != nil {
		return nil, err
	}
	defer h.retire(e)

	jr, err := h.runJoins(e, share(seconds, 0.45), false, o, "joins")
	if err != nil {
		return nil, err
	}
	cr, err := h.runChurn(e, seed, share(seconds, 0.50), o)
	if err != nil {
		return nil, err
	}
	o.Metrics["rate_per_s"] = cr.perSec
	o.Metrics["lat_p50_us"] = jr.lat.P50 / 1e3
	o.note("join latency, one at a time while the source offers the channel at %d pps: p50 %.1f µs, p90 %.1f µs, p99 %.1f µs, max %.0f µs (median of %d windows, %d joins, %d timed out)",
		joinProbeRate, jr.lat.P50/1e3, jr.lat.P90/1e3, jr.lat.P99/1e3, jr.lat.Max/1e3, jr.lat.Windows, jr.lat.Samples, jr.timeouts)
	o.note("churn_events_per_s %.0f (median of %d slices; %d toggles over 2 sessions, %.0f/s over the %.3f s from first send to core converged); stream at %.0f pps across both hops: owd p50 %.1f µs, p99 %.1f µs",
		cr.perSec, churnSlices, cr.toggles, cr.overall, cr.elapsed.Seconds(), sp.rate, cr.stream.P50/1e3, cr.stream.P99/1e3)
	if jr.lat.Samples < 2000 {
		o.note("only %d joins fitted the phase; ≥2000 wanted for a p99 with 20 samples beyond it", jr.lat.Samples)
	}
	h.retire(e)
	h.closeBooks(o)
	return o, nil
}
