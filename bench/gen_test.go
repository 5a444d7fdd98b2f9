package main

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/wire"
)

// Same seed → byte-identical packet, channel and toggle sequences; another
// seed → different ones.
func TestInputsAreDeterministic(t *testing.T) {
	packets := func(seed int64) []byte {
		cs := newChanSpace(seed)
		draws := zipfDraws(seed, 0, 1.1, 100_000)
		var all, buf []byte
		for i := uint64(0); i < 2000; i++ {
			ci := draws[i%numDraws]
			buf = buildPacket(buf[:0], cs.at(int(ci)), nil, 64, uint64(seed), int64(i)*20_000, i, 3, ci)
			all = append(all, buf...)
		}
		return all
	}
	if !bytes.Equal(packets(7), packets(7)) {
		t.Error("same seed, different packets")
	}
	if bytes.Equal(packets(7), packets(8)) {
		t.Error("different seeds, same packets")
	}
	for stream := uint64(0); stream < 3; stream++ {
		if !slices.Equal(zipfDraws(7, stream, churnZipfS, 50_000), zipfDraws(7, stream, churnZipfS, 50_000)) {
			t.Errorf("stream %d: same seed, different draws", stream)
		}
	}
	if slices.Equal(zipfDraws(7, 1, churnZipfS, 50_000), zipfDraws(7, 2, churnZipfS, 50_000)) {
		t.Error("the two churn sessions toggle the same sequence")
	}
}

func TestZipfDrawsAreSkewedAndInRange(t *testing.T) {
	const n = 100_000
	d := zipfDraws(1, 0, 1.1, n)
	if len(d) != numDraws {
		t.Fatalf("%d draws, want %d", len(d), numDraws)
	}
	top := 0
	for _, v := range d {
		if v >= n {
			t.Fatalf("draw %d outside [0,%d)", v, n)
		}
		if v < n/100 {
			top++
		}
	}
	if share := float64(top) / numDraws; share < 0.5 {
		t.Errorf("the most popular 1 %% of channels drew %.0f %% of packets; Zipf(1.1) should give them most", 100*share)
	}
}

func TestChanSpaceRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 1 << 40, -5} {
		cs := newChanSpace(seed)
		for _, i := range []int{0, 1, 99_999, 100_000, 100_001, 165_537} {
			ch := cs.at(i)
			if !ch.Valid() || ch.E.ExpressSuffix() == 0 {
				t.Fatalf("seed %d: channel %d = %v is not a usable EXPRESS channel", seed, i, ch)
			}
			if got := cs.index(ch); got != i {
				t.Errorf("seed %d: index(at(%d)) = %d", seed, i, got)
			}
		}
	}
}

func TestPayloadCheck(t *testing.T) {
	const seed = 42
	srh, err := wire.AppendExtHeader(nil, [][]wire.HopEntry{{{Hop: 1, OIFs: 0xf}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{payloadFixed, 64, 67, 256, 1200} {
		cs := newChanSpace(seed)
		b := buildPacket(nil, cs.at(5), srh, n, seed, 123456789, 77, 9, 5)
		var pkt wire.DataPacket
		if _, err := pkt.DecodeFromBytes(b); err != nil {
			t.Fatal(err)
		}
		if pkt.Channel != cs.at(5) || pkt.Seq != 78 || pkt.Flags&wire.DataFlagSrcRoute == 0 {
			t.Fatalf("header %+v", pkt)
		}
		_, payload, err := wire.ParseExtHeader(pkt.Payload)
		if err != nil || len(payload) != n {
			t.Fatalf("payload %d bytes after the source-route header, want %d (%v)", len(payload), n, err)
		}
		pi, ok := checkPayload(payload, seed)
		if !ok || pi != (payloadInfo{due: 123456789, index: 77, phase: 9, chanIdx: 5}) {
			t.Fatalf("len %d: check %v, %+v", n, ok, pi)
		}
		if _, ok := checkPayload(payload, seed+1); ok && n > payloadFixed {
			t.Errorf("len %d: another seed's pattern accepted", n)
		}
		if n > payloadFixed {
			payload[len(payload)-1] ^= 1
			if _, ok := checkPayload(payload, seed); ok {
				t.Errorf("len %d: flipped last byte accepted", n)
			}
		}
	}
	if _, ok := checkPayload(make([]byte, payloadFixed-1), seed); ok {
		t.Error("short payload accepted")
	}
}
