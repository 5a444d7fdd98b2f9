package main

import (
	"net"
	"net/netip"
	"runtime"
	"time"

	"repro/internal/addr"
	"repro/internal/dataplane"
	"repro/internal/wire"
)

// Per-layer costs, measured from outside by timing calls into each layer's
// public functions on the workload's own bytes: the packets the generator
// would send, a FIB of the workload's size, the churn trace's toggles.

// microBudget bounds each timed loop.
const microBudget = 150 * time.Millisecond

// timeLoop calls fn(i) for i = 0, 1, … in batches until microBudget has
// passed and returns ns per call, allocations per call and the interval.
func (h *harness) timeLoop(tr *tracer, name string, fn func(i int)) (ns, allocs float64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	t0 := h.now()
	n := 0
	for time.Since(start) < microBudget {
		for k := 0; k < 1024; k++ {
			fn(n)
			n++
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&ms1)
	tr.add("micro."+name, t0, h.now(), -1, 0)
	return float64(el.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// sinks keep results alive so the compiler cannot drop the measured calls.
var (
	sinkU32 uint32
	sinkInt int
)

// measureLayers fills o.Metrics with the wire.*, fib.* and dp.handle
// metrics for the workload.
func (h *harness) measureLayers(sp spec, seed int64, draws []uint32, tr *tracer, o *outcome) error {
	cs := newChanSpace(seed)
	mask := uint32(1)<<sp.fanout - 1
	pickIdx := func(i int) int {
		if draws == nil {
			return 0
		}
		return int(draws[i%numDraws])
	}

	// The source-route header SRTree folds for one hop with this fan-out.
	// FIB-mode workloads get the header they would carry if they switched.
	srh, err := wire.AppendExtHeader(nil, [][]wire.HopEntry{{{Hop: 1, OIFs: mask}}})
	if err != nil {
		return err
	}
	var stamped []byte
	if sp.sr {
		stamped = srh
	}
	const nPkts = 1024
	pkts := make([][]byte, nPkts)
	for i := range pkts {
		ci := pickIdx(i)
		pkts[i] = buildPacket(make([]byte, 0, wire.MaxDataPacket), cs.at(ci), stamped, sp.payload,
			uint64(seed), int64(i), uint64(i), 1, uint32(ci))
	}
	var pkt wire.DataPacket
	decodeNs, decodeAllocs := h.timeLoop(tr, "wire.decode", func(i int) {
		n, _ := pkt.DecodeFromBytes(pkts[i%nPkts])
		sinkInt += n
	})
	hdrPayload := append(append([]byte(nil), srh...), make([]byte, sp.payload)...)
	popNs, popAllocs := h.timeLoop(tr, "wire.srh_pop", func(int) {
		hdrPayload[1] = wire.ExtHeaderFixed // rewind the cursor the last pop advanced
		eh, _, _ := wire.ParseExtHeader(hdrPayload)
		m, _ := eh.PopMask(1)
		sinkU32 += m
	})
	var seg []byte
	for i := 0; i < wire.CountsPerSegment; i++ {
		c := wire.Count{Channel: cs.at(pickIdx(i)), CountID: wire.CountSubscribers, Value: uint32(i & 1)}
		seg = c.AppendTo(seg)
	}
	walkNs, walkAllocs := h.timeLoop(tr, "wire.walkcounts", func(int) {
		n, _ := wire.WalkCounts(seg, func(m wire.Count) { sinkU32 += m.Value })
		sinkInt += n
	})
	o.Metrics["wire.decode_ns"] = decodeNs
	o.Metrics["wire.srh_pop_ns"] = popNs
	o.Metrics["wire.walkcounts_ns_per_count"] = walkNs / wire.CountsPerSegment
	o.Metrics["wire.allocs_per_op"] = decodeAllocs + popAllocs + walkAllocs

	// A plane of the workload's size whose ports aim at a drained socket.
	drain, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	drain.SetReadBuffer(4 << 20)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, wire.MaxDataPacket)
		for {
			if _, _, err := drain.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
	defer func() { drain.Close(); <-drained }()
	var hop uint16
	if sp.sr {
		hop = 1
	}
	p, err := dataplane.NewPlane(dataplane.Options{HopID: hop})
	if err != nil {
		return err
	}
	defer p.Close()
	dst := drain.LocalAddr().(*net.UDPAddr).AddrPort()
	for i := 0; i < sp.fanout; i++ {
		p.SetPort(i, netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port()))
	}
	for i := 0; i < sp.installed(); i++ {
		p.SetRoute(cs.at(i), mask)
	}

	keys := make([]addr.Channel, nPkts)
	for i := range keys {
		keys[i] = cs.at(pickIdx(i))
	}
	lookupNs, _ := h.timeLoop(tr, "fib.lookup", func(i int) {
		k := keys[i%nPkts]
		m, _ := p.FIB().ForwardMask(k.S, k.E, -1)
		sinkU32 += m
	})
	o.Metrics["fib.lookup_ns"] = lookupNs

	// The churn trace's writes: each toggle flips one route out or in.
	toggles := zipfDraws(seed, 1, churnZipfS, max(sp.installed(), 2))
	on := make([]bool, sp.installed())
	for i := range on {
		on[i] = true
	}
	setNs, _ := h.timeLoop(tr, "fib.set", func(i int) {
		r := int(toggles[i%numDraws]) % len(on)
		if on[r] {
			p.SetRoute(cs.at(r), 0)
		} else {
			p.SetRoute(cs.at(r), mask)
		}
		on[r] = !on[r]
	})
	o.Metrics["fib.set_ns"] = setNs
	for r, is := range on {
		if !is {
			p.SetRoute(cs.at(r), mask)
		}
	}

	// HandlePacket in bursts that fit the egress queues; between bursts the
	// writers drain them untimed, so no burst meets a full queue.
	const handleBurst = 256
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var busy time.Duration
	handled := 0
	t0 := h.now()
	before := p.Stats()
	for start := time.Now(); time.Since(start) < 3*microBudget; {
		b0 := time.Now()
		for k := 0; k < handleBurst; k++ {
			b := pkts[handled%nPkts]
			if sp.sr {
				b[wire.DataHeaderSize+1] = wire.ExtHeaderFixed
			}
			sinkInt += p.HandlePacket(b)
			handled++
		}
		busy += time.Since(b0)
		for !p.DrainEgress(0) { // poll; its own wait would sleep a timer tick per burst
			runtime.Gosched()
		}
	}
	runtime.ReadMemStats(&ms1)
	tr.add("micro.dp.handle", t0, h.now(), -1, 0)
	d := statsDelta(before, p.Stats())
	handleNs := float64(busy.Nanoseconds()) / float64(handled)
	o.Metrics["dp.handle_ns"] = handleNs
	o.Metrics["dp.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(handled)
	steer := lookupNs
	if sp.sr {
		steer = popNs
	}
	o.Metrics["dp.replicate_ns_per_copy"] = (handleNs - decodeNs - steer) / float64(sp.fanout)
	if d.Replicated != uint64(handled*sp.fanout) || d.Drops != 0 {
		o.note("dp.handle micro: %d packets replicated %d copies with %d drops; want %d and 0, so dp.handle_ns includes the drop path",
			handled, d.Replicated, d.Drops, handled*sp.fanout)
	}
	return nil
}
