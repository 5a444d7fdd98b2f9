package main

import (
	"encoding/binary"
	"math/rand"
	"slices"

	"repro/internal/addr"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Everything the routers receive is made here from the seed alone: the
// channel space, the per-packet channel draws, the payload bytes and the
// membership toggles. The same seed gives byte-identical sequences
// (gen_test.go pins that).

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// chanSpace maps a workload's channel indices onto (S,E) channels. Source
// and suffix offset come from the seed, so two seeds exercise different
// FIB slots and shard placements.
type chanSpace struct {
	src addr.Addr
	off uint32
}

func newChanSpace(seed int64) chanSpace {
	h := splitmix64(uint64(seed))
	return chanSpace{
		src: addr.Addr(171<<24 | 64<<16 | uint32(h>>48)), // 171.64.x.y, as the paper's examples
		off: uint32(h) & 0x7fffff,
	}
}

// at returns channel i. Suffix 0 is never used (the FIB reserves key 0).
func (c chanSpace) at(i int) addr.Channel {
	return addr.Channel{S: c.src, E: addr.ExpressAddr(1 + (c.off+uint32(i))%(addr.ChannelsPerHost-1))}
}

// numDraws is the length of a pre-drawn Zipf sequence. Senders cycle through
// it: drawing costs ~100 ns, which at 10⁵ packets/s would make the generator
// a tenth of the load it offers.
const numDraws = 1 << 20

// zipfDraws returns numDraws indices in [0, n) with Zipf(s) popularity,
// rank 0 the most popular. The stream tag keeps the sequences of one seed
// (packet channels, each churn session's toggles) independent.
func zipfDraws(seed int64, stream uint64, s float64, n int) []uint32 {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ stream<<56))))
	z := workload.Zipf(rng, s, n)
	out := make([]uint32, numDraws)
	for i := range out {
		out[i] = uint32(z.Uint64())
	}
	return out
}

// Payload layout (little endian), after the 12-byte data header and the
// source-route header if any:
//
//	0..7    due time, ns on the benchmark clock
//	8..15   source-packet index within the phase
//	16..19  phase id
//	20..23  workload channel index
//	24..    pattern: the 8-byte word splitmix64(seed ^ index ^ phase<<40) repeated
const payloadFixed = 24

func patternWord(seed uint64, index uint64, phase uint32) uint64 {
	return splitmix64(seed ^ index ^ uint64(phase)<<40)
}

// fillPayload writes one packet's payload into p (len(p) ≥ payloadFixed).
func fillPayload(p []byte, seed uint64, due int64, index uint64, phase, chanIdx uint32) {
	binary.LittleEndian.PutUint64(p[0:], uint64(due))
	binary.LittleEndian.PutUint64(p[8:], index)
	binary.LittleEndian.PutUint32(p[16:], phase)
	binary.LittleEndian.PutUint32(p[20:], chanIdx)
	fillPattern(p[payloadFixed:], patternWord(seed, index, phase))
}

func fillPattern(p []byte, w uint64) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, w)
		p = p[8:]
	}
	for i := range p {
		p[i] = byte(w >> (8 * uint(i)))
	}
}

// payloadInfo is a received payload's fixed part.
type payloadInfo struct {
	due     int64
	index   uint64
	phase   uint32
	chanIdx uint32
}

// checkPayload parses p and verifies every pattern byte.
func checkPayload(p []byte, seed uint64) (payloadInfo, bool) {
	if len(p) < payloadFixed {
		return payloadInfo{}, false
	}
	pi := payloadInfo{
		due:     int64(binary.LittleEndian.Uint64(p[0:])),
		index:   binary.LittleEndian.Uint64(p[8:]),
		phase:   binary.LittleEndian.Uint32(p[16:]),
		chanIdx: binary.LittleEndian.Uint32(p[20:]),
	}
	w := patternWord(seed, pi.index, pi.phase)
	p = p[payloadFixed:]
	for len(p) >= 8 {
		if binary.LittleEndian.Uint64(p) != w {
			return pi, false
		}
		p = p[8:]
	}
	for i := range p {
		if p[i] != byte(w>>(8*uint(i))) {
			return pi, false
		}
	}
	return pi, true
}

// buildPacket writes one framed data packet over b, growing it if need be: data header, the
// source-route header srh when non-empty (flag set), then the payload.
func buildPacket(b []byte, ch addr.Channel, srh []byte, payloadLen int,
	seed uint64, due int64, index uint64, phase, chanIdx uint32) []byte {
	var flags uint8
	if len(srh) > 0 {
		flags = wire.DataFlagSrcRoute
	}
	n := wire.DataHeaderSize + len(srh) + payloadLen
	b = slices.Grow(b[:0], n)[:n]
	wire.PutDataHeader(b, ch, uint32(index)+1, flags)
	copy(b[wire.DataHeaderSize:], srh)
	fillPayload(b[wire.DataHeaderSize+len(srh):], seed, due, index, phase, chanIdx)
	return b
}
