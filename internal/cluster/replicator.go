// Package cluster is the robustness layer that turns a hardened single
// ReFlex server into a replicated primary/backup pair: write replication
// over the existing wire protocol (OpReplicate), a catch-up stream for a
// (re)joining backup, epoch fencing against split-brain, and the backup
// join loop. The client-side half — epoch-fenced failover and hedged
// reads — lives in internal/client (DialCluster).
//
// Replication model (kept deliberately simple, in the spirit of the
// paper's §4.3 control plane assumption that tenants can be migrated off
// a degraded node):
//
//   - One primary, one backup, joined by a backup-initiated TCP
//     connection speaking the normal protocol. The backup sends OpJoin;
//     from then on the primary pushes OpReplicate requests (epoch-stamped
//     acked writes) down that connection and reads acks back off it.
//   - The primary defers each client write ack until the backup acks the
//     replicated copy, so every acked write survives a primary kill.
//   - On (re)join the primary streams a catch-up of the device behind the
//     live write stream (the shipper in shipper.go); chunk reads and sends
//     are serialized with live forwards so a stale chunk can never overwrite
//     a newer write. A catch-up that cannot finish says so with a non-OK
//     marker and detaches, and the backup rejoins.
//   - Epochs fence a deposed primary: a backup whose epoch moved past the
//     sender's acks with StatusStaleEpoch, and the old primary stops
//     accepting writes.
//
// Replication covers device 0; multi-device replication would run one
// replicator per device and is out of scope here.
package cluster

import (
	"sync"
	"sync/atomic"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

// ReplicaSender delivers one framed message to the attached backup. The
// server adapts its connection write path to this; send failures tear the
// connection down out-of-band (the replicator sees a Detach).
//
// lease, when non-nil, is a reference on the pooled buffer backing
// payload that the sender now owns: it must be released once the bytes
// are on the wire (or the send is abandoned). Catch-up chunks pass nil —
// their buffer is private to the catch-up goroutine.
type ReplicaSender interface {
	SendToReplica(hdr *protocol.Header, payload []byte, lease *bufpool.Buf)
}

// ReplicatorConfig configures the primary-side replicator.
type ReplicatorConfig struct {
	// Backend is device 0's storage, read by the catch-up stream.
	Backend storage.Backend
	// Epoch returns the server's current cluster epoch, stamped on every
	// replicated write.
	Epoch func() uint16
	// OnStale is called when the backup acks with StatusStaleEpoch: a
	// higher epoch exists, this primary is deposed and must fence itself.
	OnStale func(epoch uint16)
	// OnForward/OnAck/OnCatchup are metrics hooks (may be nil).
	OnForward func()
	OnAck     func()
	OnCatchup func(bytes int)
	// ChunkBytes sizes catch-up chunks (default 256 KiB, clamped to
	// protocol.MaxPayload).
	ChunkBytes int
}

// Replicator is the primary's half of write replication. At most one
// backup session is attached at a time; a new Attach supersedes the old.
// All methods are safe for concurrent use; a nil *Replicator forwards
// nothing (Forward reports false), so standalone servers need no guards.
type Replicator struct {
	cfg ReplicatorConfig

	sess atomic.Pointer[session]

	cookie atomic.Uint64

	forwarded atomic.Uint64
	acked     atomic.Uint64
}

// session is one attached backup connection.
type session struct {
	r      *Replicator
	sender ReplicaSender

	// Ranged sessions (migration sinks attached via AttachRange) only see
	// writes and catch-up chunks intersecting [rangeStart, rangeStart+
	// rangeBlocks) LBA blocks, and receive a non-response OpJoin marker
	// frame when the ranged catch-up completes. rangeBlocks == 0 means the
	// whole device (a classic backup join).
	rangeStart  uint32
	rangeBlocks uint32

	// sendMu serializes every message sent to the backup — and, for
	// catch-up chunks, the [backend read + send] pair — so a chunk read
	// before a live write landed can never be sent after that write's
	// forward and overwrite it on the backup.
	sendMu sync.Mutex

	// acks holds live forwards and catch-up chunks awaiting the backup.
	acks *pendingAcks

	caughtUp atomic.Bool
}

// NewReplicator builds a primary-side replicator.
func NewReplicator(cfg ReplicatorConfig) *Replicator {
	cfg.ChunkBytes = chunkBytes(cfg.ChunkBytes)
	return &Replicator{cfg: cfg}
}

// Forwarded and Acked report replication traffic counters.
func (r *Replicator) Forwarded() uint64 {
	if r == nil {
		return 0
	}
	return r.forwarded.Load()
}
func (r *Replicator) Acked() uint64 {
	if r == nil {
		return 0
	}
	return r.acked.Load()
}

// Live reports whether a backup session is attached (forwards are
// happening). The backup may still be catching up; see CaughtUp.
func (r *Replicator) Live() bool {
	return r != nil && r.sess.Load() != nil
}

// CaughtUp reports whether the attached backup has received the full
// catch-up stream (it is a valid failover target for all data, not just
// writes since it joined).
func (r *Replicator) CaughtUp() bool {
	if r == nil {
		return false
	}
	s := r.sess.Load()
	return s != nil && s.caughtUp.Load()
}

// Attach installs sender as the backup session, superseding any previous
// one (whose pending forwards complete with detachStatus semantics, see
// Detach), and starts the catch-up stream. Returns the session token used
// to detach exactly this session later; the token also offers
// HandleAck(*protocol.Header) and Close() for the connection that carries
// the session, so its acks and its teardown reach this session and no other.
func (r *Replicator) Attach(sender ReplicaSender) any {
	return r.AttachRange(sender, 0, 0)
}

// AttachRange is Attach restricted to the LBA-block window [firstLBA,
// firstLBA+blockCount): only intersecting writes are forwarded, the
// catch-up stream covers only that window, and a non-response OpJoin
// marker frame (echoing the window in LBA/Count) is sent when the
// catch-up finishes — the migration sink's signal that it holds every
// byte of the shard except what live forwards will still deliver.
// blockCount == 0 selects the whole device and no marker (plain Attach).
func (r *Replicator) AttachRange(sender ReplicaSender, firstLBA, blockCount uint32) any {
	if r == nil {
		return nil
	}
	s := &session{
		r:           r,
		sender:      sender,
		rangeStart:  firstLBA,
		rangeBlocks: blockCount,
		acks:        newPendingAcks(),
	}
	if old := r.sess.Swap(s); old != nil {
		old.close(protocol.StatusOK)
	}
	go s.catchup()
	return s
}

// Detach removes the session identified by token (ignored if a newer
// session already superseded it). Pending forwards complete with st:
// StatusOK degrades the primary to standalone acks (the write is durable
// locally and there is no backup left to lose it to), StatusStaleEpoch
// propagates a deposition to waiting clients.
func (r *Replicator) Detach(token any, st protocol.Status) {
	if r == nil || token == nil {
		return
	}
	s, ok := token.(*session)
	if !ok {
		return
	}
	r.sess.CompareAndSwap(s, nil)
	s.close(st)
}

// close fails every pending forward with st and stops the catch-up
// stream. Idempotent.
func (s *session) close(st protocol.Status) {
	for _, done := range s.acks.close() {
		done(st)
	}
}

// Forward replicates one locally applied write to the backup. It reports
// false when no backup is attached — the caller acks the client
// immediately (standalone/degraded mode). When it reports true, done will
// be called exactly once with the backup's ack status (or the detach
// status if the session dies first); the caller must defer the client ack
// until then.
//
// lease, when non-nil, is the pooled buffer backing payload. Forward
// retains its own reference before handing it to the sender (which
// releases it after the backup-bound flush), so the caller may release
// its reference as soon as Forward returns — regardless of the return
// value.
//
// trace/parent, when non-zero, propagate the originating request's trace
// context: the forwarded frame carries a FlagTraced trailer so the
// backup (or migration sink) records its apply as a child span of the
// primary's serve span. The trailer is appended to a private pooled copy
// — payload may be a clip sub-slice of a shared buffer that must not be
// grown in place.
func (r *Replicator) Forward(lba uint32, payload []byte, lease *bufpool.Buf, trace, parent uint64, done func(protocol.Status)) bool {
	if r == nil {
		return false
	}
	s := r.sess.Load()
	if s == nil {
		return false
	}
	lba, payload, ok := s.clip(lba, payload)
	if !ok {
		return false
	}
	cookie := r.cookie.Add(1)
	if !s.acks.add(cookie, done) {
		return false
	}

	hdr := protocol.Header{
		Opcode: protocol.OpReplicate,
		Epoch:  r.cfg.Epoch(),
		Cookie: cookie,
		LBA:    lba,
		Count:  uint32(len(payload)),
	}
	if trace != 0 {
		cp := bufpool.Get(len(payload) + protocol.TraceSize)
		payload = protocol.AppendTrace(append(cp.Bytes()[:0], payload...), trace, parent)
		lease = cp // ownership transfers to the sender; no Retain
		hdr.Flags = protocol.FlagTraced
	} else if lease != nil {
		lease.Retain()
	}
	s.sendMu.Lock()
	s.sender.SendToReplica(&hdr, payload, lease)
	s.sendMu.Unlock()
	r.forwarded.Add(1)
	if r.cfg.OnForward != nil {
		r.cfg.OnForward()
	}
	return true
}

// clip narrows a write to the session's range filter. Unranged sessions
// (classic backups) pass everything through untouched; ranged sessions
// (migration sinks) must not see a single out-of-window block, because
// the sink relays frames verbatim to a destination whose shard-map
// enforcement requires the ENTIRE range to be owned — a client write
// legally straddling the moving shard's boundary at the source (which
// owns both sides) would be refused whole with StatusWrongShard at the
// destination, killing the sink and aborting the move. The trimmed-off
// remainder is not lost: it belongs to shards the source keeps owning
// and reaches the pair's backup via the unranged session.
//
// ok is false when the write misses the window entirely (nothing to
// forward). The returned payload is a sub-slice of the input, so the
// caller's lease still backs it.
func (s *session) clip(lba uint32, payload []byte) (uint32, []byte, bool) {
	if s.rangeBlocks == 0 {
		return lba, payload, true
	}
	blocks := uint32(len(payload) / protocol.BlockSize)
	if blocks == 0 {
		// Sub-block frame: intersection test only, nothing to trim.
		blocks = 1
		if lba >= s.rangeStart && lba < s.rangeStart+s.rangeBlocks {
			return lba, payload, true
		}
		return 0, nil, false
	}
	lo, hi := s.rangeStart, s.rangeStart+s.rangeBlocks
	if lba >= hi || lba+blocks <= lo {
		return 0, nil, false
	}
	if lba < lo {
		payload = payload[(lo-lba)*protocol.BlockSize:]
		lba = lo
	}
	if end := lba + uint32(len(payload))/protocol.BlockSize; end > hi {
		payload = payload[:(hi-lba)*protocol.BlockSize]
	}
	return lba, payload, true
}

// Pending returns the number of forwards awaiting a backup ack on the
// current session — the migration coordinator polls this (over OpPing)
// to know when the drain after a cutover has quiesced.
func (r *Replicator) Pending() int {
	if r == nil {
		return 0
	}
	s := r.sess.Load()
	if s == nil {
		return 0
	}
	return s.acks.len()
}

// HandleAck completes the pending forward matching a replication ack read
// off the backup connection. A StatusStaleEpoch ack means the backup's
// epoch moved past ours: the primary is deposed — OnStale fires and the
// session closes, failing the remaining pending forwards the same way.
func (r *Replicator) HandleAck(hdr *protocol.Header) {
	if r == nil {
		return
	}
	if s := r.sess.Load(); s != nil {
		s.HandleAck(hdr)
	}
}

// HandleAck is Replicator.HandleAck for an ack read off this session's own
// connection: it can only complete a frame this session sent.
func (s *session) HandleAck(hdr *protocol.Header) {
	r := s.r
	done := s.acks.take(hdr.Cookie)
	if hdr.Status == protocol.StatusStaleEpoch {
		// Fence and close before completing the frame: when it is a
		// catch-up chunk, its shipper must find the session already closed
		// stale and not announce an abort of its own.
		if r.cfg.OnStale != nil {
			r.cfg.OnStale(hdr.Epoch)
		}
		r.Detach(s, protocol.StatusStaleEpoch)
	}
	if done != nil {
		r.acked.Add(1)
		if r.cfg.OnAck != nil {
			r.cfg.OnAck()
		}
		done(hdr.Status)
	}
}

// Close detaches the session because its connection died: pending
// forwards degrade to standalone acks (see Detach).
func (s *session) Close() { s.r.Detach(s, protocol.StatusOK) }

// catchup ships the session's window of the device behind the live write
// stream, then the completion marker on ranged sessions: a non-response
// OpJoin frame echoing the window, which the sink reads as "every block of
// the shard is now on my device except what the live forward stream will
// still deliver" — the coordinator's green light for the epoch-fenced
// cutover. Unranged (classic backup) sessions end silently, preserving the
// original join protocol. A catch-up that dies while the backup is still
// connected (backend read error, refused chunk) sends the marker with a
// non-OK Status and detaches, so Live/CaughtUp stop claiming a backup that
// will never be whole and the receiver rejoins instead of waiting.
func (s *session) catchup() {
	r := s.r
	var ranges []StreamRange
	if r.cfg.Backend != nil {
		start, end := int64(0), r.cfg.Backend.Size()
		if s.rangeBlocks != 0 {
			start = int64(s.rangeStart) * protocol.BlockSize
			end = min(end, start+int64(s.rangeBlocks)*protocol.BlockSize)
		}
		ranges = []StreamRange{{Off: start, Len: end - start}}
	}
	sh := shipper{
		sender: s.sender,
		acks:   s.acks,
		cookie: &r.cookie,
		epoch:  r.cfg.Epoch,
		readAt: func(p []byte, off int64) error {
			_, err := r.cfg.Backend.ReadAt(p, off)
			return err
		},
		lock:       &s.sendMu,
		chunkOp:    protocol.OpReplicate,
		marker:     protocol.Header{Opcode: protocol.OpJoin, LBA: s.rangeStart, Count: s.rangeBlocks},
		okMarker:   s.rangeBlocks != 0,
		chunkBytes: r.cfg.ChunkBytes,
		onChunk:    r.cfg.OnCatchup,
	}
	shipped := sh.ship(ranges)
	s.caughtUp.Store(shipped)
	if !sh.finish(shipped) {
		s.Close()
	}
}
