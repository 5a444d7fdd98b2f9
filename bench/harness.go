package main

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/addr"
	"repro/internal/wire"
)

// harness is the measuring side of every workload: one seeded sender (the
// goroutine that calls runClosed or runPaced) and one sink goroutine
// reading the single socket every subscriber session advertises as its
// DataPort. The program under test sits between them and sees only the
// datagrams and Counts generated from the seed.
type harness struct {
	seed uint64
	base time.Time

	sinkIO   *batchConn // the socket every subscriber session advertises
	sinkDone chan struct{}

	toRouter *batchConn             // connected to the tree root's data address
	toSink   *batchConn             // connected straight to the sink (no router): the generator's own ceiling
	srh      atomic.Pointer[[]byte] // source-route header pushed by realnet.SRTree, nil in FIB mode

	mu      sync.Mutex // held by the sink per datagram, and by begin/end
	cur     *phase
	phases  uint32
	rx      uint64 // datagrams read from the sink socket
	badRecv uint64 // of those, the ones the receiver could not decode or no phase explains
	stale   uint64 // of those, datagrams of a phase already closed (written off there)

	// The other side of the sink's books, kept by the sender: what the
	// routers' edge planes report as written to the sink (booked when a
	// topology is retired) and what the generator sent straight to it.
	routerSent, directSent uint64
	excused                uint64 // copies lost in voided windows (see windowHealth.void)

	tr *tracer // non-nil while a traced phase runs
}

// inFlightCopies bounds the closed loop: at most this many copies are
// between sender and sink at once — below every egress queue (1024) and
// socket buffer (4 MiB) on the path, so the loop cannot lose by construction.
const inFlightCopies = 512

// closedSlices is how many equal slices a closed-loop run's rate is read
// off; the median slice is reported.
const closedSlices = 8

// noProgress is how long the sink may deliver nothing before outstanding
// copies are written off as failures. A lost copy stays lost however long
// one waits, so the only cost of waiting well past the tens of milliseconds
// this kind of box sometimes freezes for is time.
const noProgress = 250 * time.Millisecond

// phase is one measured interval. The sink attributes each datagram to the
// open phase by the id carried in its payload; fields below recvd are owned
// by the sink (under harness.mu) until end returns.
type phase struct {
	id         uint32
	fanout     int // copies expected per source packet
	payloadLen int
	direct     bool // generator → sink with no router between: the header stack arrives unpopped
	// expect returns the channel that index chanIdx must arrive on, and
	// whether the sink may receive it at all (a channel nobody subscribed
	// must never arrive).
	expect func(chanIdx uint32) (addr.Channel, bool)

	recvd atomic.Uint64 // verified copies, read by the closed-loop sender

	ledger copyLedger // copies per source-packet index (unused by join phases)
	t0     int64      // latency windows start here ...
	winLen int64      // ... and are this long; 0 = latencies not recorded
	wins   [][]int64

	joinBase uint32  // first join channel index; joinSeen != nil marks a join phase
	joinSeen []int64 // first arrival per join, ns on the benchmark clock
	joinCh   chan uint32

	corrupt   uint64 // payload, length, sequence number or leftover source-route header wrong
	wrongAddr uint64 // arrived on another channel than sent on, or on an unsubscribed one
	dups      uint64 // copies beyond fan-out

	began, ended int64       // benchmark clock
	samples      []pktSample // traced phases only: every sampleEvery-th packet's timeline
}

// slotBytes holds the largest framed packet.
const slotBytes = 2048

func newHarness(seed int64) (*harness, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	c.SetReadBuffer(4 << 20)
	h := &harness{seed: uint64(seed), base: time.Now(), sinkDone: make(chan struct{})}
	if h.sinkIO, err = newBatchConn(c, slotBytes); err == nil {
		h.toSink, err = dialUDP(c.LocalAddr().String())
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	go h.sink()
	return h, nil
}

// sinkPort is the DataPort every subscriber session advertises.
func (h *harness) sinkPort() uint16 { return uint16(h.sinkIO.conn.LocalAddr().(*net.UDPAddr).Port) }

func dialUDP(target string) (*batchConn, error) {
	ua, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	c.SetWriteBuffer(4 << 20)
	b, err := newBatchConn(c, slotBytes)
	if err != nil {
		c.Close()
	}
	return b, err
}

// attach points the sender at a tree root's data address.
func (h *harness) attach(target string) error {
	h.detach()
	c, err := dialUDP(target)
	if err != nil {
		return err
	}
	h.toRouter = c
	return nil
}

func (h *harness) detach() {
	if h.toRouter != nil {
		h.toRouter.conn.Close()
		h.toRouter = nil
	}
	h.srh.Store(nil)
}

// close stops the sink and waits for it.
func (h *harness) close() {
	h.detach()
	h.toSink.conn.Close()
	h.sinkIO.conn.Close()
	<-h.sinkDone
}

// now is the benchmark clock: monotonic ns since the harness started.
func (h *harness) now() int64 { return int64(time.Since(h.base)) }

// setSourceRoute is the SRTree sink: it swaps the header the sender stamps.
func (h *harness) setSourceRoute(hdr []byte) {
	if len(hdr) == 0 {
		h.srh.Store(nil)
		return
	}
	cp := append([]byte(nil), hdr...)
	h.srh.Store(&cp)
}

func (h *harness) begin(p *phase) {
	h.mu.Lock()
	h.phases++
	p.id = h.phases
	p.began = h.now()
	if h.tr != nil && p.joinSeen == nil {
		p.samples = make([]pktSample, maxSamples)
	}
	h.cur = p
	h.mu.Unlock()
}

// end closes the open phase; afterwards its sink-owned fields are stable.
func (h *harness) end() {
	h.mu.Lock()
	if h.cur != nil {
		h.cur.ended = h.now()
	}
	h.cur = nil
	h.mu.Unlock()
}

// sink reads the subscribers' socket a batch at a time. Every datagram of a
// batch is stamped with the time the batch was read: when the application
// saw it.
func (h *harness) sink() {
	defer close(h.sinkDone)
	for {
		n, err := h.sinkIO.recv()
		now := h.now()
		if err != nil {
			return // socket closed
		}
		h.mu.Lock()
		h.rx += uint64(n)
		for i := 0; i < n; i++ {
			h.deliver(h.sinkIO.bufs[i][:h.sinkIO.size(i)], now)
		}
		h.mu.Unlock()
	}
}

// deliver checks one datagram as a subscriber's stack would take it —
// decode the data header, strip the source-route header — and books it to
// the open phase. Called under harness.mu.
func (h *harness) deliver(b []byte, now int64) {
	var pkt wire.DataPacket
	if _, err := pkt.DecodeFromBytes(b); err != nil {
		h.badRecv++
		return
	}
	popped := true
	if pkt.Flags&wire.DataFlagSrcRoute != 0 {
		hdr, rest, err := wire.ParseExtHeader(pkt.Payload)
		if err != nil {
			h.badRecv++
			return
		}
		popped, pkt.Payload = hdr.Exhausted(), rest
	}
	pi, ok := checkPayload(pkt.Payload, h.seed)
	ph := h.cur
	switch {
	case !ok && (ph == nil || pi.phase != ph.id):
		h.badRecv++
	case ph == nil || pi.phase != ph.id:
		h.stale++
	case !ok || len(pkt.Payload) != ph.payloadLen || pkt.Seq != uint32(pi.index)+1 || (!popped && !ph.direct):
		ph.corrupt++
	default:
		ph.account(&pi, pkt.Channel, now)
	}
}

// account books one verified datagram. Called by the sink under harness.mu.
func (p *phase) account(pi *payloadInfo, ch addr.Channel, now int64) {
	want, subscribed := p.expect(pi.chanIdx)
	if !subscribed || ch != want {
		p.wrongAddr++
		return
	}
	if p.joinSeen != nil {
		j := pi.chanIdx - p.joinBase
		if int(j) < len(p.joinSeen) && p.joinSeen[j] == 0 {
			p.joinSeen[j] = now
			select {
			case p.joinCh <- j:
			default:
			}
		}
		return
	}
	if p.ledger.add(pi.index, p.fanout) {
		p.dups++
		return
	}
	if p.winLen > 0 {
		if w := (pi.due - p.t0) / p.winLen; w >= 0 && int(w) < len(p.wins) {
			p.wins[w] = append(p.wins[w], now-pi.due)
		}
	}
	if s := p.sample(pi.index); s != nil {
		if s.first == 0 {
			s.first = now
		}
		s.last = now
	}
	p.recvd.Add(1)
}

// violations is the number of output checks the phase failed, missing
// copies of its sent source packets included.
func (p *phase) violations(sent uint64) uint64 {
	v := p.corrupt + p.wrongAddr + p.dups
	if p.joinSeen == nil {
		v += p.ledger.missing(sent, p.fanout)
	}
	return v
}

// picker names the channel of source packet i.
type picker func(i uint64) (addr.Channel, uint32)

// burst is the sender's staging area for one sendmmsg: packet k sits in the
// connection's slot k.
type burst struct {
	length [batchSlots]int
	n      int
}

// stage builds source packet index of ph into the connection's next free
// slot.
func (h *harness) stage(c *batchConn, bu *burst, ph *phase, pick picker, index uint64, due int64) {
	var srh []byte
	if p := h.srh.Load(); p != nil {
		srh = *p
	}
	ch, ci := pick(index)
	bu.length[bu.n] = len(buildPacket(c.bufs[bu.n][:0], ch, srh, ph.payloadLen, h.seed, due, index, ph.id, ci))
	bu.n++
	if s := ph.sample(index); s != nil {
		s.due, s.sendStart = due, h.now()
	}
}

// flush sends the staged burst, source packets first..first+n-1, in one
// syscall.
func (h *harness) flush(c *batchConn, bu *burst, ph *phase, first uint64) error {
	count := uint64(bu.n)
	err := c.send(bu.length[:bu.n])
	bu.n = 0
	if err != nil {
		return fmt.Errorf("send packets %d..%d: %w", first, first+count-1, err)
	}
	if ph.samples != nil {
		now := h.now()
		for i := first; i < first+count; i++ {
			if s := ph.sample(i); s != nil {
				s.sendEnd = now
			}
		}
	}
	return nil
}

// sample returns the timeline slot of source packet index when the phase is
// traced and the packet is one of the sampled, nil otherwise.
func (p *phase) sample(index uint64) *pktSample {
	if p.samples == nil || index%sampleEvery != 0 || index/sampleEvery >= uint64(len(p.samples)) {
		return nil
	}
	return &p.samples[index/sampleEvery]
}

// conn is where the phase's packets go: the tree root, or straight to the
// sink when the phase runs without a router.
func (h *harness) conn(ph *phase) *batchConn {
	if ph.direct {
		return h.toSink
	}
	return h.toRouter
}

// closedResult is what one closed-loop run measured.
type closedResult struct {
	Sent       uint64        // source packets sent
	PPS        float64       // median slice
	PeakPPS    float64       // fastest slice
	WrittenOff uint64        // copies given up on after noProgress
	CPU        time.Duration // process user+system time over the run, generator and sink included
	Elapsed    time.Duration
}

// runClosed is the capacity phase: keep the pipe as full as the in-flight
// bound admits for dur, then let the tail drain. The sender tops the pipe up
// a burst at a time — up to a quarter of the bound, one syscall — as its own
// per-packet cost must stay small beside the router's.
func (h *harness) runClosed(ph *phase, dur time.Duration, pick picker) (closedResult, error) {
	conn := h.conn(ph)
	fan := uint64(ph.fanout)
	perBurst := uint64(max(1, min(batchSlots, inFlightCopies/4/ph.fanout)))
	var res closedResult
	var bu burst
	var off uint64 // copies written off
	lastR, lastProgress := uint64(0), h.now()
	// admit blocks until at most limit copies are in flight.
	admit := func(limit uint64) {
		for {
			r := ph.recvd.Load()
			// Signed: a copy that arrives after it was written off makes
			// the sum exceed what was sent.
			if int64(res.Sent*fan)-int64(r+off) <= int64(limit) {
				return
			}
			now := h.now()
			if r != lastR {
				lastR, lastProgress = r, now
			} else if now-lastProgress > int64(noProgress) {
				off = res.Sent*fan - r
				lastProgress = now
			}
			runtime.Gosched()
		}
	}
	h.mu.Lock()
	ph.ledger.counts = touched[uint8](int(2e6 * dur.Seconds()))[:0] // room for 2 M packets/s before it has to grow
	h.mu.Unlock()
	settle()
	cpu0 := cpuTime()
	t0 := h.now()
	end := t0 + int64(dur)
	// The rate is read off closedSlices equal slices of the run and the
	// median slice reported, so one slow stretch does not move it.
	var rates []float64
	sliceAt, sliceRecvd := t0, uint64(0)
	for now := t0; now < end; now = h.now() {
		admit(inFlightCopies - perBurst*fan)
		now = h.now()
		for k := uint64(0); k < perBurst; k++ {
			h.stage(conn, &bu, ph, pick, res.Sent+k, now)
		}
		if err := h.flush(conn, &bu, ph, res.Sent); err != nil {
			return res, err
		}
		res.Sent += perBurst
		if now-sliceAt >= int64(dur)/closedSlices {
			r := ph.recvd.Load()
			rates = append(rates, float64(r-sliceRecvd)/float64(fan)/(float64(now-sliceAt)/1e9))
			sliceAt, sliceRecvd = now, r
		}
	}
	res.Elapsed = time.Duration(h.now() - t0)
	res.CPU = cpuTime() - cpu0
	admit(0) // drain the tail so the ledger is complete
	res.WrittenOff = off
	res.PPS, res.PeakPPS = median(slices.Clone(rates)), slices.Max(rates)
	return res, nil
}

// pacedResult is what one open-loop run measured about its generator.
type pacedResult struct {
	Sent     uint64
	Offered  float64 // rate asked for, source packets/s
	Achieved float64 // rate the generator managed
	LateP90  float64 // generator lateness (send start − due time), ns
	LateP99  float64
	late     []int64 // per source packet, in index order
}

// runPaced is the latency phase: source packet i is due at t0 + i/rate on
// an absolute schedule, whatever happened to earlier packets, and carries
// that due time so the sink measures from when it should have left. A
// generator that fell behind sends everything already due in one burst.
//
// coarse paces by sleeping instead of spinning: the generator then wakes
// about every millisecond (the timer resolution here) and sends what fell
// due, leaving its core to the program. It is for a background stream beside
// a CPU-bound phase, not for latency figures.
func (h *harness) runPaced(ph *phase, rate float64, dur time.Duration, windows int, pick picker, coarse bool) (pacedResult, error) {
	conn := h.conn(ph)
	n := uint64(rate * dur.Seconds())
	late := touched[int64](int(n))
	h.mu.Lock()
	ph.winLen = int64(dur)/int64(windows) + 1
	ph.wins = make([][]int64, windows)
	for i := range ph.wins {
		ph.wins[i] = touched[int64](int(n)*ph.fanout/windows + 1)
	}
	ph.ledger.counts = touched[uint8](int(n))[:n]
	h.mu.Unlock()
	settle()
	h.mu.Lock()
	ph.t0 = h.now() + int64(time.Millisecond)
	h.mu.Unlock()
	dueOf := func(i uint64) int64 { return ph.t0 + int64(float64(i)*1e9/rate) }
	res := pacedResult{Offered: rate}
	var bu burst
	for res.Sent < n {
		due := dueOf(res.Sent)
		now := h.now()
		for coarse && now < due {
			time.Sleep(time.Duration(due - now))
			now = h.now()
		}
		for now < due {
			// Spin, offering the CPU to the kernel each turn. Sleeping is not
			// an option at these rates (timers on this kind of box fire a
			// millisecond late), and yielding to the Go scheduler instead
			// starves the network poller: owd p50 goes from 16 µs to 2 ms.
			syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
			now = h.now()
		}
		for i := res.Sent; i < n && bu.n < batchSlots && due <= now; i, due = i+1, dueOf(i+1) {
			late = append(late, now-due)
			h.stage(conn, &bu, ph, pick, i, due)
		}
		count := uint64(bu.n)
		if err := h.flush(conn, &bu, ph, res.Sent); err != nil {
			return res, err
		}
		res.Sent += count
	}
	res.Achieved = float64(n) / (float64(h.now()-ph.t0) / 1e9)
	h.drain(ph, n*uint64(ph.fanout))
	res.late = late
	sorted := slices.Clone(late)
	slices.Sort(sorted)
	res.LateP90, res.LateP99 = float64(percentile(sorted, 0.90)), float64(percentile(sorted, 0.99))
	return res, nil
}

// settle collects the garbage of set-up and of the previous phase, so that a
// collection cycle lands inside a timed phase only when the program under
// test allocates its way there during that phase.
func settle() { runtime.GC() }

// touched returns an empty slice of capacity n whose every page has been
// written. In a VM the first touch of a fresh page can cost far more than a
// packet's whole trip, and a phase that grows into fresh memory as it runs
// measures that instead of the router.
func touched[T any](n int) []T {
	s := make([]T, n)
	var zero T
	for i := 0; i < n; i += 512 {
		s[i] = zero
	}
	return s[:0]
}

// drain waits until want copies arrived or the sink made no progress for
// noProgress.
func (h *harness) drain(ph *phase, want uint64) {
	lastR, lastProgress := ph.recvd.Load(), h.now()
	for lastR < want {
		time.Sleep(200 * time.Microsecond)
		r, now := ph.recvd.Load(), h.now()
		if r != lastR {
			lastR, lastProgress = r, now
		} else if now-lastProgress > int64(noProgress) {
			return
		}
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
