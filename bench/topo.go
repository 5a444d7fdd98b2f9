package main

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/realnet"
	"repro/internal/wire"
)

// spec is one named workload. The rationale for each is in BENCHMARK.json
// and README.md.
type spec struct {
	name    string
	routes  int     // channels installed before measuring
	fanout  int     // subscriber sessions on every data channel = copies per source packet
	payload int     // bytes after the 12-byte data header
	zipfS   float64 // >0: each packet's channel is drawn Zipf(zipfS) over the routes; 0: channel 0
	sr      bool    // source-routed mode: the sender stamps the header realnet.SRTree folds
	twoHop  bool    // core → edge tree, control-path phases
	// rate is the fixed open-loop rate of the latency phase, source
	// packets/s: about half the capacity measured when the benchmark was
	// defined, frozen so later changes compare latency at the same load.
	rate float64
}

var specs = []spec{
	{name: "fwd-f1-64B", routes: 100_000, fanout: 1, payload: 64, zipfS: 1.1, rate: 100_000},
	{name: "fwd-f16-1200B", routes: 1, fanout: 16, payload: 1200, rate: 4_000},
	{name: "fwd-sr-f4-256B", routes: 1, fanout: 4, payload: 256, sr: true, rate: 25_000},
	{name: "ctl-join-churn-2hop", routes: 100_000, fanout: 1, payload: 64, twoHop: true, rate: 5_000},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Channel indices of a workload: 0 is the data (or stream) channel, 1..routes-1
// (fwd) or 1..routes (two-hop) the other installed routes, then the canary
// that nobody ever subscribes, then fresh channels for joins.
func (s spec) installed() int {
	if s.twoHop {
		return s.routes + 1
	}
	return s.routes
}
func (s spec) canary() uint32   { return uint32(s.installed()) }
func (s spec) joinBase() uint32 { return uint32(s.installed()) + 1 }

// env is one built instance of a workload's topology.
type env struct {
	spec spec
	cs   chanSpace
	core *realnet.Router // tree root: where the source injects
	edge *realnet.Router // where subscribers attach; == core on one hop
	sess []*realnet.Session
	srt  *realnet.SRTree

	retired bool
}

func (e *env) close() {
	if e.srt != nil {
		e.srt.Close()
	}
	for _, s := range e.sess {
		s.Close()
	}
	if e.edge != nil && e.edge != e.core {
		e.edge.Close()
	}
	if e.core != nil {
		e.core.Close()
	}
}

const setupTimeout = 30 * time.Second

func waitUntil(what string, cond func() bool) error {
	deadline := time.Now().Add(setupTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: %s: not reached within %v", what, setupTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// setup builds the workload's topology the way a deployment comes up —
// routers (what expressd runs: realnet.Router with DataListen), subscriber
// sessions advertising the sink's DataPort, routes and ports programmed by
// the control plane, source route folded — and returns once a probe sent at
// the tree root reached the sink on every subscriber. The elapsed time is
// one setup_s sample.
func (h *harness) setup(sp spec, seed int64, tr *tracer) (*env, time.Duration, error) {
	start := time.Now()
	t0 := h.now()
	e := &env{spec: sp, cs: newChanSpace(seed)}
	fail := func(err error) (*env, time.Duration, error) {
		e.close()
		return nil, 0, err
	}

	opts := realnet.Options{DataListen: "127.0.0.1:0"}
	if sp.sr {
		opts.DataHopID = 1
	}
	var err error
	if e.core, err = realnet.NewRouterOpts("127.0.0.1:0", opts); err != nil {
		return fail(err)
	}
	e.edge = e.core
	if sp.twoHop {
		opts.Upstream = e.core.Addr()
		if e.edge, err = realnet.NewRouterOpts("127.0.0.1:0", opts); err != nil {
			return fail(err)
		}
	}
	t1 := h.now()
	tr.add("setup.routers", t0, t1, -1, 0)

	// Sessions are dialled one at a time so that session k is neighbor k
	// (ids follow acceptance order) and owns OIF bit k.
	nsess := sp.fanout
	if sp.twoHop {
		nsess = 3 // 0: stream and joins; 1, 2: churn
	}
	for k := 0; k < nsess; k++ {
		s, err := realnet.DialSession(e.edge.Addr(), realnet.SessionOptions{
			SessionID: splitmix64(uint64(seed))<<8 | uint64(k+1),
			DataPort:  h.sinkPort(),
		})
		if err != nil {
			return fail(err)
		}
		e.sess = append(e.sess, s)
		if err := waitUntil("session accepted", func() bool { return e.edge.NumNeighbors() == k+1 }); err != nil {
			return fail(err)
		}
	}
	t2 := h.now()
	tr.add("setup.sessions", t1, t2, -1, 0)

	for i := 0; i < sp.installed(); i++ {
		for _, s := range e.owners(i) {
			if err := s.Subscribe(e.cs.at(i)); err != nil {
				return fail(err)
			}
		}
	}
	for _, s := range e.sess {
		if err := s.Flush(); err != nil {
			return fail(err)
		}
	}
	want := sp.installed()
	if err := waitUntil("routes installed", func() bool {
		return e.core.DataPlane().FIB().Len() == want && e.edge.DataPlane().FIB().Len() == want &&
			e.edge.OIFMask(e.cs.at(0)) == uint32(1)<<sp.fanout-1
	}); err != nil {
		return fail(err)
	}
	if err := waitUntil("data ports registered", func() bool {
		for k := 0; k < nsess; k++ {
			if _, ok := e.edge.DataPlane().PortAddr(k); !ok {
				return false
			}
		}
		_, ok := e.core.DataPlane().PortAddr(0) // on two hops: the edge's plane
		return ok
	}); err != nil {
		return fail(err)
	}
	t3 := h.now()
	tr.add("setup.routes", t2, t3, -1, 0)

	if err := h.attach(e.core.DataAddr()); err != nil {
		return fail(err)
	}
	if sp.sr {
		e.srt = realnet.NewSRTree(0)
		e.srt.AddRouter(e.core, 1, 0)
		e.srt.Serve(e.cs.at(0), h.setSourceRoute)
		if err := waitUntil("source route folded", func() bool {
			p := h.srh.Load()
			if p == nil {
				return false
			}
			hdr, _, err := wire.ParseExtHeader(append([]byte(nil), *p...))
			if err != nil {
				return false
			}
			mask, st := hdr.PopMask(1)
			return st == wire.SRFound && mask == uint32(1)<<sp.fanout-1
		}); err != nil {
			return fail(err)
		}
	}
	t4 := h.now()
	tr.add("setup.source", t3, t4, -1, 0)

	if err := h.probe(e); err != nil {
		return fail(err)
	}
	tr.add("setup.probe", t4, h.now(), -1, 0)
	return e, time.Since(start), nil
}

// owners returns the sessions that subscribe channel i at set-up.
func (e *env) owners(i int) []*realnet.Session {
	switch {
	case !e.spec.twoHop && i == 0:
		return e.sess // every subscriber joins the data channel
	case !e.spec.twoHop:
		return e.sess[:1]
	case i == 0:
		return e.sess[:1]
	default:
		return e.sess[1+i%2 : 2+i%2]
	}
}

// expectAll is the phase.expect of every data phase: channel indices map
// through the workload's channel space; installed routes may arrive, the
// canary and anything else may not.
func (e *env) expectAll(chanIdx uint32) (addr.Channel, bool) {
	return e.cs.at(int(chanIdx)), int(chanIdx) < e.spec.installed()
}

// dataPhase is a fresh phase expecting fan-out verified copies per packet —
// or, direct, the one datagram per source packet the generator sends straight
// to the sink.
func (e *env) dataPhase(direct bool) *phase {
	ph := &phase{fanout: e.spec.fanout, payloadLen: e.spec.payload, expect: e.expectAll, direct: direct}
	if direct {
		ph.fanout = 1
	}
	return ph
}

// pickData names source packet i's channel: Zipf over the installed routes
// where the workload says so, the single data channel otherwise.
func (e *env) pickData(draws []uint32) picker {
	if draws == nil {
		ch := e.cs.at(0)
		return func(uint64) (addr.Channel, uint32) { return ch, 0 }
	}
	return func(i uint64) (addr.Channel, uint32) {
		ci := draws[i%numDraws]
		return e.cs.at(int(ci)), ci
	}
}

// probe sends a canary on a channel nobody subscribed and then a packet on
// channel 0 until the latter reaches the sink on every subscriber. Both
// take the same path in order, so the canary not having arrived by then is
// the check that unsubscribed traffic is not forwarded. Source-routed
// packets carry their own OIF bitmap whatever the subscriptions say, so the
// canary is FIB-mode only.
func (h *harness) probe(e *env) error {
	ph := e.dataPhase(false)
	h.begin(ph)
	defer h.end()
	canary := func(uint64) (addr.Channel, uint32) { return e.cs.at(int(e.spec.canary())), e.spec.canary() }
	var sent uint64
	var bu burst
	deadline := time.Now().Add(setupTimeout)
	for sent == 0 || ph.recvd.Load() < sent*uint64(ph.fanout) {
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: probe not delivered on %d subscribers within %v", ph.fanout, setupTimeout)
		}
		if !e.spec.sr {
			h.stage(h.toRouter, &bu, ph, canary, 1<<40, h.now())
		}
		h.stage(h.toRouter, &bu, ph, e.pickData(nil), sent, h.now())
		if err := h.flush(h.toRouter, &bu, ph, sent); err != nil {
			return err
		}
		sent++
		h.drain(ph, sent*uint64(ph.fanout))
	}
	h.end()
	if v := ph.violations(sent); v != 0 {
		return fmt.Errorf("set-up: probe failed %d output checks (wrong address %d, corrupt %d, dup %d)",
			v, ph.wrongAddr, ph.corrupt, ph.dups)
	}
	return nil
}
