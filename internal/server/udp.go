package server

import (
	"syscall"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/protocol"
)

// UDP endpoint: the lighter-weight transport the paper anticipates
// alongside TCP (§4.1: "Both tail latency and throughput will improve
// when we implement UDP or other, lighter-weight transport protocols").
// One datagram carries one protocol message; I/O sizes are capped so a
// response always fits a datagram. Delivery is best-effort — a lost
// datagram surfaces as a client-side timeout, never as corruption. The
// socket sits in core 0's epoll set; replies are sent from whichever
// goroutine completes the request (a datagram send needs no ordering).

// MaxUDPIO bounds a single I/O over the UDP transport.
const MaxUDPIO = 32 << 10

// udpRecvSize holds the largest legal request (header + MaxUDPIO write
// payload) with slack so truncation is detectable (see readUDP).
const udpRecvSize = protocol.HeaderSize + MaxUDPIO + 4096

// udpPeer replies to one datagram's source address.
type udpPeer struct {
	srv *Server
	to  syscall.Sockaddr
}

// send frames hdr+payload into a pooled arena and writes one datagram. A
// failed send is not a teardown event: UDP is best-effort.
func (u *udpPeer) send(_ *pcore, hdr protocol.Header, payload []byte, lease *bufpool.Buf) {
	defer bufpool.ReleaseIf(lease)
	if hdr.Epoch == 0 {
		hdr.Epoch = u.srv.ClusterEpoch()
	}
	frame := bufpool.Get(protocol.HeaderSize + len(payload))
	defer frame.Release()
	b, err := protocol.AppendMessage(frame.Bytes()[:0], &hdr, payload)
	if err != nil {
		return
	}
	// The read lock keeps Close from closing (and the kernel from reusing)
	// the descriptor under a late reply.
	u.srv.udpMu.RLock()
	if u.srv.udpFD >= 0 {
		syscall.Sendto(u.srv.udpFD, b, 0, u.to)
	}
	u.srv.udpMu.RUnlock()
}

// readUDP serves a batch of datagrams on core 0, each in a pooled lease
// that dispatch borrows. The kernel silently truncates a datagram larger
// than the buffer, which a completely full buffer reveals.
func (pc *pcore) readUDP() {
	s := pc.srv
	for i := 0; i < wireBatchMsgs; i++ {
		lease := bufpool.Get(udpRecvSize)
		buf := lease.Bytes()
		n, from, err := syscall.Recvfrom(s.udpFD, buf, 0)
		if err != nil {
			lease.Release()
			return // drained (level-triggered epoll calls again if not)
		}
		peer := &udpPeer{srv: s, to: from}
		if n == len(buf) {
			// Parsing the remainder would read garbage as payload: reply
			// with a typed error, echoing the header when it is intact.
			s.m.rejected.Inc()
			var hdr protocol.Header
			if hdr.Unmarshal(buf[:protocol.HeaderSize]) == nil {
				reject(pc, peer, &hdr, protocol.StatusTruncated)
			}
		} else if pc.msg.UnmarshalFrame(buf[:n]) == nil {
			pc.dispatch(peer, &pc.msg, lease)
		} // else malformed: drop, as a NIC would a bad frame
		lease.Release()
	}
}
