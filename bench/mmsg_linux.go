//go:build linux && (amd64 || arm64)

package main

import (
	"net"
	"syscall"
	"unsafe"
)

// Kernel-batched datagram I/O for the generator and the sink, so that their
// own per-packet cost is small beside the router's: one sendmmsg or recvmmsg
// moves up to batchSlots datagrams. The benchmark runs on linux only; the
// routers it measures use the same syscalls (internal/dataplane).

const batchSlots = 32

// mmsghdr mirrors struct mmsghdr: a Msghdr plus the datagram length the
// kernel writes; the pad keeps the C layout's 8-byte stride.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// batchConn is a UDP socket with preallocated gather/scatter arrays. hdrs
// holds raw pointers into iovs and bufs; keeping all three in one reachable
// struct keeps them alive while the kernel reads through the pointers.
type batchConn struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	bufs [batchSlots][]byte
	iovs [batchSlots]syscall.Iovec
	hdrs [batchSlots]mmsghdr

	n, off int           // send: slots staged, slots the kernel took so far
	errno  syscall.Errno // set by the raw callbacks

	// The raw callbacks, built once: a closure per call would allocate, and
	// the harness must not grow the heap while it measures.
	readFn, writeFn func(fd uintptr) bool
}

func newBatchConn(c *net.UDPConn, slotBytes int) (*batchConn, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &batchConn{conn: c, rc: rc}
	for i := range b.bufs {
		b.bufs[i] = make([]byte, slotBytes)
		b.hdrs[i].hdr.Iov = &b.iovs[i]
		b.hdrs[i].hdr.Iovlen = 1
	}
	b.readFn = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&b.hdrs[0])),
			batchSlots, syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			b.n = int(n)
			return true
		case syscall.EAGAIN, syscall.EINTR:
			return false // park in the poller until readable
		}
		b.errno = errno
		return true
	}
	b.writeFn = func(fd uintptr) bool {
		for b.off < b.n {
			n, _, errno := syscall.Syscall6(sysSENDMMSG, fd, uintptr(unsafe.Pointer(&b.hdrs[b.off])),
				uintptr(b.n-b.off), syscall.MSG_DONTWAIT, 0, 0)
			switch errno {
			case 0:
				b.off += int(n)
			case syscall.EINTR:
			case syscall.EAGAIN:
				return false // park until writable
			default:
				b.errno = errno
				return true
			}
		}
		return true
	}
	return b, nil
}

// recv blocks until at least one datagram is queued and returns how many it
// read; datagram i is bufs[i][:size(i)].
func (b *batchConn) recv() (int, error) {
	for i := range b.bufs {
		b.iovs[i].Base = &b.bufs[i][0]
		b.iovs[i].SetLen(len(b.bufs[i]))
	}
	b.n, b.errno = 0, 0
	err := b.rc.Read(b.readFn)
	if err == nil && b.n == 0 {
		err = b.errno
	}
	return b.n, err
}

func (b *batchConn) size(i int) int { return int(b.hdrs[i].n) }

// send writes bufs[i][:length[i]] for each i as one datagram each, to the
// socket's connected peer.
func (b *batchConn) send(length []int) error {
	for i, n := range length {
		b.iovs[i].Base = &b.bufs[i][0]
		b.iovs[i].SetLen(n)
	}
	b.n, b.off, b.errno = len(length), 0, 0
	err := b.rc.Write(b.writeFn)
	if err == nil && b.errno != 0 {
		err = b.errno
	}
	return err
}
