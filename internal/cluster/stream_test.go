package cluster

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

// streamAckSender records every frame a diff stream sends and acks data
// chunks (Len > 0) back into the stream, playing the restore receiver.
type streamAckSender struct {
	s    *Stream
	mu   sync.Mutex
	hdrs []protocol.Header
}

func (a *streamAckSender) SendToReplica(hdr *protocol.Header, payload []byte, lease *bufpool.Buf) {
	bufpool.ReleaseIf(lease)
	a.mu.Lock()
	a.hdrs = append(a.hdrs, *hdr)
	a.mu.Unlock()
	if hdr.Len > 0 {
		ack := *hdr
		ack.Flags = protocol.FlagResponse
		ack.Status = protocol.StatusOK
		go a.s.HandleAck(&ack)
	}
}

func (a *streamAckSender) frames() []protocol.Header {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]protocol.Header(nil), a.hdrs...)
}

// TestStreamCompleteMarker: a healthy stream ships every range and ends
// with a zero-length, zero-count StatusOK marker.
func TestStreamCompleteMarker(t *testing.T) {
	sender := &streamAckSender{}
	var complete bool
	s := NewStream(StreamConfig{
		Op:     protocol.OpVolStream,
		Epoch:  func() uint16 { return 3 },
		ReadAt: func(p []byte, off int64) error { return nil },
		Sender: sender,
		OnDone: func(c bool) { complete = c },
	})
	sender.s = s
	s.Run([]StreamRange{{Off: 0, Len: 2 * protocol.BlockSize}})
	if !complete {
		t.Fatal("OnDone(complete) not true for a fully acked stream")
	}
	fr := sender.frames()
	if len(fr) == 0 {
		t.Fatal("no frames sent")
	}
	last := fr[len(fr)-1]
	if last.Len != 0 || last.Count != 0 || last.Status != protocol.StatusOK {
		t.Fatalf("terminal frame = %+v, want OK marker", last)
	}
	if s.SentBytes() != 2*protocol.BlockSize {
		t.Fatalf("SentBytes = %d, want %d", s.SentBytes(), 2*protocol.BlockSize)
	}
}

// TestStreamAbortMarker: when the source read fails mid-stream while the
// receiver is still connected, the stream must send a terminal marker
// with a non-OK status — otherwise the receiver blocks forever waiting
// for chunks that will never come.
func TestStreamAbortMarker(t *testing.T) {
	sender := &streamAckSender{}
	reads := 0
	var complete = true
	s := NewStream(StreamConfig{
		Op:    protocol.OpVolStream,
		Epoch: func() uint16 { return 3 },
		ReadAt: func(p []byte, off int64) error {
			reads++
			if reads > 1 {
				return errors.New("backend died")
			}
			return nil
		},
		Sender:     sender,
		ChunkBytes: protocol.BlockSize,
		OnDone:     func(c bool) { complete = c },
	})
	sender.s = s
	s.Run([]StreamRange{{Off: 0, Len: 3 * protocol.BlockSize}})
	if complete {
		t.Fatal("OnDone(complete) true for an aborted stream")
	}
	if !s.Done() {
		t.Fatal("aborted stream not Done")
	}
	fr := sender.frames()
	if len(fr) != 2 {
		t.Fatalf("sent %d frames, want chunk + abort marker", len(fr))
	}
	last := fr[len(fr)-1]
	if last.Len != 0 || last.Count != 0 {
		t.Fatalf("terminal frame = %+v, want marker shape", last)
	}
	if last.Status == protocol.StatusOK {
		t.Fatal("abort marker carries StatusOK — receiver would treat the partial image as complete")
	}
}

// TestStreamClosedSendsNoMarker: a stream torn down by Close (receiver
// connection died) must not write anything more to the sender.
func TestStreamClosedSendsNoMarker(t *testing.T) {
	sender := &streamAckSender{}
	s := NewStream(StreamConfig{
		Op:     protocol.OpVolStream,
		Epoch:  func() uint16 { return 1 },
		ReadAt: func(p []byte, off int64) error { return nil },
		Sender: sender,
	})
	sender.s = s
	s.Close()
	s.Run([]StreamRange{{Off: 0, Len: protocol.BlockSize}})
	if n := len(sender.frames()); n != 0 {
		t.Fatalf("closed stream sent %d frames, want 0", n)
	}
}

// The three shipper configurations (unranged session, ranged session,
// Stream) must end a transfer the same way. shipRig starts one over a
// recording sender and a source the test controls.
type shipRig struct {
	name     string
	markerOp protocol.Opcode
	okMarker bool // a complete transfer ends with a marker frame
	start    func(snd *rigSender, readAt func(p []byte, off int64) error, size int64, chunk int) rigRun
}

type rigRun struct {
	ended    func() bool // the transfer is over, either way
	complete func() bool // ... and the sender counts it as whole
	close    func()      // the receiver's connection died
}

// rigSender records every frame and plays the receiver: chunk number
// refuseAt is acked with a device error, chunk number holdAt not at all,
// every other chunk StatusOK.
type rigSender struct {
	ack      func(*protocol.Header)
	refuseAt int
	holdAt   int

	mu     sync.Mutex
	hdrs   []protocol.Header
	chunks int
}

func (a *rigSender) SendToReplica(hdr *protocol.Header, payload []byte, lease *bufpool.Buf) {
	bufpool.ReleaseIf(lease)
	a.mu.Lock()
	a.hdrs = append(a.hdrs, *hdr)
	if len(payload) > 0 {
		a.chunks++
	}
	n := a.chunks
	a.mu.Unlock()
	if len(payload) == 0 || n == a.holdAt {
		return
	}
	ack := *hdr
	ack.Flags = protocol.FlagResponse
	ack.Status = protocol.StatusOK
	if n == a.refuseAt {
		ack.Status = protocol.StatusDeviceError
	}
	go a.ack(&ack)
}

func (a *rigSender) frames() []protocol.Header {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]protocol.Header(nil), a.hdrs...)
}

// readBackend is a storage.Backend whose reads the test scripts.
type readBackend struct {
	storage.Backend
	readAt func(p []byte, off int64) error
}

func (b readBackend) ReadAt(p []byte, off int64) (int, error) {
	return len(p), b.readAt(p, off)
}

func sessionRig(name string, ranged bool) shipRig {
	return shipRig{
		name:     name,
		markerOp: protocol.OpJoin,
		okMarker: ranged,
		start: func(snd *rigSender, readAt func(p []byte, off int64) error, size int64, chunk int) rigRun {
			r := NewReplicator(ReplicatorConfig{
				Backend:    readBackend{storage.NewMem(size), readAt},
				Epoch:      func() uint16 { return 3 },
				ChunkBytes: chunk,
			})
			snd.ack = r.HandleAck
			var tok any
			if ranged {
				tok = r.AttachRange(snd, 0, uint32(size/protocol.BlockSize))
			} else {
				tok = r.Attach(snd)
			}
			return rigRun{
				ended:    func() bool { return r.CaughtUp() || !r.Live() },
				complete: func() bool { return r.CaughtUp() && r.Live() },
				close:    func() { r.Detach(tok, protocol.StatusOK) },
			}
		},
	}
}

var shipRigs = []shipRig{
	sessionRig("unranged session", false),
	sessionRig("ranged session", true),
	{
		name:     "stream",
		markerOp: protocol.OpVolStream,
		okMarker: true,
		start: func(snd *rigSender, readAt func(p []byte, off int64) error, size int64, chunk int) rigRun {
			var complete atomic.Bool
			s := NewStream(StreamConfig{
				Op:         protocol.OpVolStream,
				Epoch:      func() uint16 { return 3 },
				ReadAt:     readAt,
				Sender:     snd,
				ChunkBytes: chunk,
				OnDone:     complete.Store,
			})
			snd.ack = s.HandleAck
			ran := make(chan struct{})
			go func() {
				s.Run([]StreamRange{{Off: 0, Len: size}})
				close(ran)
			}()
			return rigRun{
				ended: func() bool {
					select {
					case <-ran:
						return s.Done()
					default:
						return false
					}
				},
				complete: complete.Load,
				close:    s.Close,
			}
		},
	},
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestShipperTerminalFrame: a 3-chunk transfer that completes, dies on its
// second read, has its second chunk refused, or loses its connection with
// the second chunk unacked must put the same frames on the wire whichever
// configuration runs it — and a session that aborted must stop claiming a
// live, caught-up backup.
func TestShipperTerminalFrame(t *testing.T) {
	const chunks = 3
	scenarios := []struct {
		name       string
		failRead   int // read number that errors
		refuseAt   int // chunk number the receiver refuses
		closeAt    int // chunk number left unacked until the connection dies
		wantChunks int
		wantMarker bool // a terminal frame follows the chunks
		wantOK     bool
	}{
		{name: "complete", wantChunks: chunks, wantMarker: true, wantOK: true},
		{name: "read fails", failRead: 2, wantChunks: 1, wantMarker: true},
		{name: "chunk refused", refuseAt: 2, wantChunks: 2, wantMarker: true},
		{name: "connection dies", closeAt: 2, wantChunks: 2},
	}
	for _, rig := range shipRigs {
		for _, sc := range scenarios {
			t.Run(rig.name+"/"+sc.name, func(t *testing.T) {
				snd := &rigSender{refuseAt: sc.refuseAt, holdAt: sc.closeAt}
				var reads atomic.Int32
				readAt := func(p []byte, off int64) error {
					if int(reads.Add(1)) == sc.failRead {
						return errors.New("backend died")
					}
					return nil
				}
				run := rig.start(snd, readAt, chunks*protocol.BlockSize, protocol.BlockSize)
				want := sc.wantChunks
				if sc.wantMarker && (!sc.wantOK || rig.okMarker) {
					want++
				}
				eventually(t, "the expected frames", func() bool { return len(snd.frames()) >= want })
				if sc.closeAt != 0 {
					run.close()
				}
				eventually(t, "the transfer to end", run.ended)
				if sc.closeAt != 0 {
					time.Sleep(20 * time.Millisecond) // a late marker would land here
				}
				if run.complete() != sc.wantOK {
					t.Fatalf("complete = %v, want %v", run.complete(), sc.wantOK)
				}
				fr := snd.frames()
				if len(fr) != want {
					t.Fatalf("sent %d frames, want %d: %+v", len(fr), want, fr)
				}
				for i, h := range fr[:sc.wantChunks] {
					if h.Len != protocol.BlockSize || h.Count != protocol.BlockSize || h.LBA != uint32(i) {
						t.Fatalf("frame %d = %+v, want chunk %d", i, h, i)
					}
				}
				if want == sc.wantChunks {
					return
				}
				last := fr[want-1]
				if last.Opcode != rig.markerOp || last.IsResponse() || last.Len != 0 {
					t.Fatalf("terminal frame = %+v, want a %s marker", last, rig.markerOp)
				}
				if (last.Status == protocol.StatusOK) != sc.wantOK {
					t.Fatalf("terminal frame status %s, want OK=%v", last.Status, sc.wantOK)
				}
			})
		}
	}
}

// TestChunkBytesClamped: an oversized ChunkBytes is cut down to the wire's
// payload bound in every configuration — a larger frame would be refused
// by the receiver's decoder.
func TestChunkBytesClamped(t *testing.T) {
	const size = 2*protocol.MaxPayload + protocol.BlockSize
	for _, rig := range shipRigs {
		t.Run(rig.name, func(t *testing.T) {
			snd := &rigSender{}
			run := rig.start(snd, func([]byte, int64) error { return nil }, size, 4*protocol.MaxPayload)
			eventually(t, "the transfer to end", run.ended)
			if !run.complete() {
				t.Fatal("transfer did not complete")
			}
			var total int64
			for _, h := range snd.frames() {
				if h.Len > protocol.MaxPayload {
					t.Fatalf("chunk of %d bytes exceeds MaxPayload", h.Len)
				}
				total += int64(h.Len)
			}
			if total != size {
				t.Fatalf("shipped %d bytes, want %d", total, size)
			}
		})
	}
}

// TestBackupRejoinsOnAbortMarker: a primary that gives up on the catch-up
// says so with a non-OK OpJoin marker; the backup must drop the session and
// join again instead of waiting on a socket that will stay silent.
func TestBackupRejoinsOnAbortMarker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Handshake, abort marker, then silence: the connection stays
			// open, so only the marker can end the backup's session.
			defer c.Close()
			if m, err := protocol.ReadMessage(c); err != nil || m.Header.Opcode != protocol.OpJoin {
				return
			}
			protocol.WriteMessage(c, &protocol.Header{Opcode: protocol.OpJoin, Flags: protocol.FlagResponse, Epoch: 1}, nil)
			protocol.WriteMessage(c, &protocol.Header{Opcode: protocol.OpJoin, Epoch: 1, Status: protocol.StatusError}, nil)
		}
	}()
	app := &applierStub{data: make([]byte, 512), epoch: 1, backup: true}
	bk := StartBackup(ln.Addr().String(), app, BackupOptions{RetryBase: time.Millisecond})
	defer bk.Stop()
	eventually(t, "a second join after the abort marker", func() bool { return bk.Joins() >= 2 })
}
