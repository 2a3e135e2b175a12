// Package protocol defines the ReFlex binary wire protocol: the remote
// analogue of the dataplane system calls and event conditions of Table 1
// (register, unregister, read, write and their completions).
//
// Every message is a fixed 28-byte header optionally followed by a payload
// of Len bytes (write data, read response data, or a registration record).
// The cookie field is opaque to the server and echoed on completions so
// clients can match responses to outstanding requests — the same mechanism
// the paper uses between dataplane and server code.
//
// All integers are big-endian.
package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies ReFlex protocol messages ("RF").
const Magic uint16 = 0x5246

// HeaderSize is the fixed message header size in bytes.
const HeaderSize = 32

// MaxPayload bounds a single message's payload (one I/O). Larger I/Os span
// multiple messages, as in §3.1.
const MaxPayload = 1 << 20

// BlockSize is the logical block size; LBA is in these units.
const BlockSize = 512

// Opcode identifies the operation.
type Opcode uint16

const (
	// OpRead reads Len bytes at LBA.
	OpRead Opcode = 0x00
	// OpWrite writes the Len-byte payload at LBA.
	OpWrite Opcode = 0x01
	// OpRegister registers a tenant; payload is a Registration.
	OpRegister Opcode = 0x02
	// OpUnregister unregisters the tenant in Handle.
	OpUnregister Opcode = 0x03
	// OpBarrier orders a tenant's I/O: it completes only after every I/O
	// submitted before it on the tenant has completed, and no I/O
	// submitted after it starts until it completes (§4.1 future work:
	// "barrier operations that can be used to force ordering and build
	// high-level abstractions like atomic transactions").
	OpBarrier Opcode = 0x04
	// OpStats returns the tenant's scheduler counters (a TenantStats
	// payload) — the accounting the control plane watches for SLO
	// renegotiation (§4.3).
	OpStats Opcode = 0x05
	// OpReplicate carries one acked write from a primary to its backup
	// (internal/cluster): LBA/Count/payload as OpWrite, stamped with the
	// primary's cluster epoch. The backup acks with a response whose
	// status is StatusStaleEpoch when its epoch has moved past the
	// sender's — the split-brain fence.
	OpReplicate Opcode = 0x06
	// OpJoin is sent by a backup to its primary to attach as the replica:
	// Epoch carries the backup's current epoch; an OK response carries
	// the primary's epoch, after which the primary streams a catch-up of
	// the device followed by live replicated writes on this connection.
	//
	// Ranged join (shard migration, DESIGN.md §13): a join whose Count
	// field is nonzero names an LBA window [LBA, LBA+Count) in BlockSize
	// units. The server attaches the connection to its migration
	// replicator instead of the backup slot: only that window is caught
	// up and only writes intersecting it are forwarded. When the ranged
	// catch-up completes the server emits a non-response OpJoin marker
	// frame (echoing LBA/Count) down the stream so the migration sink
	// knows the window is fully copied.
	OpJoin Opcode = 0x07
	// OpPromote asks a server to become primary at the given (higher)
	// epoch — issued by a failing-over client. The response carries the
	// server's resulting epoch; StatusStaleEpoch means the server already
	// saw a higher epoch and refuses.
	OpPromote Opcode = 0x08
	// OpFence informs a server that a higher epoch exists elsewhere: if
	// the carried epoch exceeds the server's, it marks itself deposed and
	// rejects subsequent writes with StatusStaleEpoch.
	OpFence Opcode = 0x09
	// OpPing is the cluster health probe: the response carries the
	// server's epoch and its role bits in Count (RoleBackupBit,
	// RoleFencedBit) and the server's migration-pending forward count in
	// LBA (the shard-move drain signal; 0 when no migration is live).
	OpPing Opcode = 0x0A
	// OpShardMap fetches or installs the cluster shard map (DESIGN.md
	// §13). A request with no payload is a fetch: the response payload is
	// the marshaled map and LBA carries its version (no payload when the
	// server has no map installed). A request carrying a payload is an
	// install (coordinator-issued): the server adopts the map iff its
	// version is newer than the installed one, answers StatusOK (LBA = the
	// resulting installed version), or StatusStaleEpoch when the offered
	// map is older than what it already has.
	OpShardMap Opcode = 0x0B
	// OpCtrlVote is a control-plane (internal/ctrlplane) RequestVote
	// exchange between coordinator replicas: the payload is the vote
	// request/response record, opaque to the data plane.
	OpCtrlVote Opcode = 0x0C
	// OpCtrlAppend is a control-plane AppendEntries exchange: leader
	// heartbeat, lease renewal and replicated-log shipment in one frame.
	OpCtrlAppend Opcode = 0x0D
	// OpCtrlSnapshot installs a control-plane state snapshot on a replica
	// whose log position predates the leader's compaction base (the
	// late-joiner catch-up path, shaped like the OpJoin catch-up stream
	// but single-shot — control-plane state is tiny).
	OpCtrlSnapshot Opcode = 0x0E
	// OpVolCreate creates a thin-provisioned logical volume (DESIGN.md
	// §18). Payload: a VolumeReq with Name and Blocks. The response
	// carries the volume's wire handle in Header.Handle; clients bind a
	// tenant to it via Registration.Volume.
	OpVolCreate Opcode = 0x0F
	// OpVolDelete deletes a volume (VolumeReq.Gen == 0) or unregisters
	// one snapshot generation (Gen != 0), returning freed extents to the
	// pool once no clone chain references them.
	OpVolDelete Opcode = 0x10
	// OpVolSnapshot freezes the named volume's live extent map under its
	// current generation — O(1), no data copied. The response payload is
	// the frozen generation (8 bytes big-endian; see MarshalGen —
	// generations are 64-bit and would wrap in the 32-bit Header.LBA).
	OpVolSnapshot Opcode = 0x11
	// OpVolClone creates a writable volume rooted at a source volume's
	// snapshot generation (VolumeReq: Name = new volume, Source, Gen).
	// The response carries the clone's handle in Header.Handle.
	OpVolClone Opcode = 0x12
	// OpVolDiff enumerates the logical extents written between two
	// generations (VolumeReq.GenA, GenB]; the response payload is a
	// VolDiff record — the incremental backup set plus the resolved
	// upper generation.
	OpVolDiff Opcode = 0x13
	// OpVolList fetches the volume directory; the response payload is a
	// sequence of VolumeInfo records, Header.Count holding how many.
	OpVolList Opcode = 0x14
	// OpVolStream is the snapshot-diff replication stream. The request
	// (VolumeReq: Name, GenA, GenB) asks the server to stream every
	// extent in Diff(GenA, GenB] as of generation GenB; the OK response
	// carries the resolved upper generation as its payload (MarshalGen).
	// Then the server sends self-paced non-response OpVolStream chunks
	// (LBA = volume-logical block, Len = bytes) that the receiver acks
	// like OpReplicate, ending with a zero-length, zero-count OpVolStream
	// marker — the OpJoin catch-up shape applied to backup. A marker with
	// a non-OK Status means the source aborted (backend read failure,
	// refused ack): the receiver must treat the restore as failed, not
	// complete.
	OpVolStream Opcode = 0x15
	// OpTrim discards a volume-logical (or raw, for unbound tenants)
	// block range: Header.LBA/Count name the range like a write with no
	// payload. Thin extents wholly inside the range return to the pool
	// and the flash layer may drop the blocks from their erase units.
	OpTrim Opcode = 0x16

	// opcodeEnd is one past the last defined opcode. The table-driven
	// String() coverage test walks [0, opcodeEnd) and fails when a new
	// opcode lands without a name — keep it in sync when adding opcodes.
	opcodeEnd Opcode = 0x17
)

// Role bits carried in an OpPing response's Count field.
const (
	// RoleBackupBit is set while the server runs as a (non-promoted)
	// backup.
	RoleBackupBit uint32 = 1 << 0
	// RoleFencedBit is set on a deposed primary that refuses writes.
	RoleFencedBit uint32 = 1 << 1
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRegister:
		return "register"
	case OpUnregister:
		return "unregister"
	case OpBarrier:
		return "barrier"
	case OpStats:
		return "stats"
	case OpReplicate:
		return "replicate"
	case OpJoin:
		return "join"
	case OpPromote:
		return "promote"
	case OpFence:
		return "fence"
	case OpPing:
		return "ping"
	case OpShardMap:
		return "shard-map"
	case OpCtrlVote:
		return "ctrl-vote"
	case OpCtrlAppend:
		return "ctrl-append"
	case OpCtrlSnapshot:
		return "ctrl-snapshot"
	case OpVolCreate:
		return "vol-create"
	case OpVolDelete:
		return "vol-delete"
	case OpVolSnapshot:
		return "vol-snapshot"
	case OpVolClone:
		return "vol-clone"
	case OpVolDiff:
		return "vol-diff"
	case OpVolList:
		return "vol-list"
	case OpVolStream:
		return "vol-stream"
	case OpTrim:
		return "trim"
	default:
		return fmt.Sprintf("opcode(%d)", uint16(o))
	}
}

// Flag bits.
const (
	// FlagResponse marks a message as a completion event.
	FlagResponse uint16 = 1 << 0
	// FlagChecksum marks a message whose payload carries a trailing
	// CRC32C (Castagnoli) over the data bytes: the wire payload is
	// data||crc32c(data), and Len includes the 4-byte trailer.
	// ReadMessage verifies and strips the trailer (Message.ChecksumErr
	// reports a mismatch). On a read *request* (no payload) the flag asks
	// the server to checksum the response.
	FlagChecksum uint16 = 1 << 1
	// FlagTraced marks a message carrying a trace-context trailer: the
	// last TraceSize bytes of the wire payload are a big-endian trace id
	// followed by the sender's span id (the receiver's parent span). The
	// trailer rides OUTSIDE the checksum trailer — a traced+checksummed
	// payload is data||crc32c(data)||trace — so the CRC still covers only
	// the data bytes and a hop can re-parent the context without
	// resealing. Message parsing strips the trailer into
	// Message.TraceID/ParentSpan; Len then reflects what remains. A traced
	// read request (which carries no data) has the trailer as its entire
	// payload. Responses never carry the trailer — the trace id was minted
	// by the caller, who already has it.
	FlagTraced uint16 = 1 << 2
	// FlagHintShort marks an OpWrite whose data the client expects to be
	// short-lived (soon overwritten or trimmed — journals, spill files,
	// compaction input). FDP-style lifetime hints: servers map hints to
	// placement streams so short-lived data never shares an erase unit
	// with long-lived data, which cuts device write amplification. A
	// hint is advisory; servers without placement support count and
	// ignore it.
	FlagHintShort uint16 = 1 << 3
	// FlagHintLong marks an OpWrite whose data the client expects to be
	// long-lived (cold objects, base images). See FlagHintShort.
	FlagHintLong uint16 = 1 << 4
	// FlagHintMask covers the lifetime-hint bits.
	FlagHintMask = FlagHintShort | FlagHintLong
)

// Lifetime hint values decoded from the flag bits (LifetimeHint).
const (
	// HintNone is an unhinted write.
	HintNone = 0
	// HintShort is short-lived data (FlagHintShort).
	HintShort = 1
	// HintLong is long-lived data (FlagHintLong).
	HintLong = 2
)

// LifetimeHint decodes the write lifetime-hint flag bits. Both bits set
// is treated as no hint (the client contradicted itself).
func (h *Header) LifetimeHint() int {
	switch h.Flags & FlagHintMask {
	case FlagHintShort:
		return HintShort
	case FlagHintLong:
		return HintLong
	}
	return HintNone
}

// ChecksumSize is the length of the CRC32C payload trailer.
const ChecksumSize = 4

// TraceSize is the length of the trace-context payload trailer:
// 8-byte trace id + 8-byte parent span id, big-endian.
const TraceSize = 16

// castagnoli is the CRC32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32C of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// SealChecksum returns data||crc32c(data), the payload form of a message
// carrying FlagChecksum.
func SealChecksum(data []byte) []byte {
	out := make([]byte, len(data)+ChecksumSize)
	n := copy(out, data)
	binary.BigEndian.PutUint32(out[n:], Checksum(data))
	return out
}

// AppendChecksum appends the CRC32C trailer to data in place and returns
// the extended slice. When cap(data) >= len(data)+ChecksumSize — the
// bufpool contract: every pooled class leaves trailer slack — no copy or
// allocation happens: the frame is sealed inside its own backing array.
func AppendChecksum(data []byte) []byte {
	var tr [ChecksumSize]byte
	binary.BigEndian.PutUint32(tr[:], Checksum(data))
	return append(data, tr[:]...)
}

// AppendTrace appends the trace-context trailer (trace id, parent span
// id) to data in place and returns the extended slice. Must be applied
// AFTER AppendChecksum when both trailers are present — the trace
// trailer is outermost on the wire. Like AppendChecksum, sufficient
// capacity means no copy or allocation.
func AppendTrace(data []byte, trace, parent uint64) []byte {
	var tr [TraceSize]byte
	binary.BigEndian.PutUint64(tr[:8], trace)
	binary.BigEndian.PutUint64(tr[8:], parent)
	return append(data, tr[:]...)
}

// Status codes carried in responses (in the Handle field's place meaning
// stays: Status uses its own field).
type Status uint16

const (
	// StatusOK means success.
	StatusOK Status = 0
	// StatusBadRequest means a malformed or out-of-range request.
	StatusBadRequest Status = 1
	// StatusNoTenant means the handle does not name a registered tenant.
	StatusNoTenant Status = 2
	// StatusDenied means the ACL rejects the operation.
	StatusDenied Status = 3
	// StatusNoCapacity means tenant admission failed (SLO not admissible,
	// the "out of resources error" of Table 1).
	StatusNoCapacity Status = 4
	// StatusError is an internal server error.
	StatusError Status = 5
	// StatusDeviceError means the device failed this I/O (media error,
	// controller reset, injected fault). The tenant and connection stay
	// registered; the operation is safe to retry.
	StatusDeviceError Status = 6
	// StatusOverloaded means the server shed this best-effort request
	// under load (admission refuse); retry after backing off.
	// Latency-critical tenants are never shed.
	StatusOverloaded Status = 7
	// StatusTruncated means a datagram transport truncated the request
	// (it exceeded the receive buffer); resend over TCP or smaller.
	StatusTruncated Status = 8
	// StatusStaleEpoch means the request carried a cluster epoch older
	// than the server's, or the server has been fenced/deposed: the write
	// was rejected to prevent split-brain. The client must re-probe the
	// cluster and retry at the current primary.
	StatusStaleEpoch Status = 9
	// StatusBadChecksum means the payload's CRC32C trailer did not match
	// the data: the write was discarded without touching media. Retryable
	// (the corruption happened in flight).
	StatusBadChecksum Status = 10
	// StatusWrongShard means the request's LBA range is not owned by this
	// node under the server's installed shard map: the client's routing
	// table is stale. The response's Count field carries the server's
	// shard-map version; the client should refetch the map (OpShardMap)
	// and retry at the owning node.
	StatusWrongShard Status = 11
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusNoTenant:
		return "no-tenant"
	case StatusDenied:
		return "denied"
	case StatusNoCapacity:
		return "no-capacity"
	case StatusError:
		return "error"
	case StatusDeviceError:
		return "device-error"
	case StatusOverloaded:
		return "overloaded"
	case StatusTruncated:
		return "truncated"
	case StatusStaleEpoch:
		return "stale-epoch"
	case StatusBadChecksum:
		return "bad-checksum"
	case StatusWrongShard:
		return "wrong-shard"
	default:
		return fmt.Sprintf("status(%d)", uint16(s))
	}
}

// Header is the fixed message header.
//
// Layout (32 bytes):
//
//	off size field
//	  0    2 magic
//	  2    2 opcode
//	  4    2 flags
//	  6    2 handle (tenant handle)
//	  8    2 status
//	 10    2 epoch (cluster epoch; 0 = standalone / epoch-unaware)
//	 12    8 cookie
//	 20    4 lba   (BlockSize units)
//	 24    4 count (bytes requested: read length; echoed on responses)
//	 28    4 len   (payload bytes that follow this header)
type Header struct {
	Opcode Opcode
	Flags  uint16
	Handle uint16
	// Status carries the response status. On *requests* the field is
	// otherwise unused, so shard-aware clients stamp the low 16 bits of
	// their routing-table (shard map) version into it — the map-version
	// header echo: a server can observe how stale its callers are, and a
	// StatusWrongShard refusal answers with the authoritative version in
	// Count. Zero means shard-unaware (the pre-sharding wire format).
	Status Status
	// Epoch is the cluster epoch the sender believes is current. Zero
	// means standalone / epoch-unaware (the pre-cluster wire format wrote
	// zero here as "reserved", so old clients interoperate): the server
	// skips epoch fencing for epoch-0 writes unless it has itself been
	// fenced. Nonzero epochs are compared against the server's; a write
	// stamped with an older epoch is rejected with StatusStaleEpoch.
	Epoch  uint16
	Cookie uint64
	LBA    uint32
	// Count is the I/O length in bytes: what a read requests, and what a
	// write intends (equal to Len for writes).
	Count uint32
	// Len is the payload size framed after the header; WriteMessage sets
	// it from the payload.
	Len uint32
}

// IsResponse reports whether the message is a completion event.
func (h *Header) IsResponse() bool { return h.Flags&FlagResponse != 0 }

// Marshal encodes the header into a fresh HeaderSize-byte slice.
func (h *Header) Marshal() []byte {
	b := make([]byte, HeaderSize)
	h.MarshalTo(b)
	return b
}

// MarshalTo encodes the header into b, which must be >= HeaderSize bytes.
func (h *Header) MarshalTo(b []byte) {
	binary.BigEndian.PutUint16(b[0:], Magic)
	binary.BigEndian.PutUint16(b[2:], uint16(h.Opcode))
	binary.BigEndian.PutUint16(b[4:], h.Flags)
	binary.BigEndian.PutUint16(b[6:], h.Handle)
	binary.BigEndian.PutUint16(b[8:], uint16(h.Status))
	binary.BigEndian.PutUint16(b[10:], h.Epoch)
	binary.BigEndian.PutUint64(b[12:], h.Cookie)
	binary.BigEndian.PutUint32(b[20:], h.LBA)
	binary.BigEndian.PutUint32(b[24:], h.Count)
	binary.BigEndian.PutUint32(b[28:], h.Len)
}

// Unmarshal decodes a header from b.
func (h *Header) Unmarshal(b []byte) error {
	if len(b) < HeaderSize {
		return fmt.Errorf("protocol: short header: %d bytes", len(b))
	}
	if m := binary.BigEndian.Uint16(b[0:]); m != Magic {
		return fmt.Errorf("protocol: bad magic 0x%04x", m)
	}
	h.Opcode = Opcode(binary.BigEndian.Uint16(b[2:]))
	h.Flags = binary.BigEndian.Uint16(b[4:])
	h.Handle = binary.BigEndian.Uint16(b[6:])
	h.Status = Status(binary.BigEndian.Uint16(b[8:]))
	h.Epoch = binary.BigEndian.Uint16(b[10:])
	h.Cookie = binary.BigEndian.Uint64(b[12:])
	h.LBA = binary.BigEndian.Uint32(b[20:])
	h.Count = binary.BigEndian.Uint32(b[24:])
	h.Len = binary.BigEndian.Uint32(b[28:])
	if h.Len > MaxPayload {
		return fmt.Errorf("protocol: payload %d exceeds max %d", h.Len, MaxPayload)
	}
	return nil
}

// Registration is the OpRegister payload: the wire form of a tenant SLO
// (Table 1 register parameters: id, latency, IOPS, rw_ratio, cookie).
//
// Layout (24 bytes):
//
//	off size field
//	  0    1 class (0 = latency-critical, 1 = best-effort)
//	  1    1 readPercent
//	  2    1 device (NVMe device index on multi-device servers)
//	  3    1 volume (wire handle of a logical volume, 0 = raw device)
//	  4    4 iops
//	  8    8 latencyP95 (ns)
//	 16    4 firstLBA   (ACL range start, BlockSize units)
//	 20    3 lbaCount   (ACL range length, 0 = whole device) + 1 writable
type Registration struct {
	BestEffort  bool
	ReadPercent uint8
	// Device selects the NVMe device on a multi-device server; each
	// device runs its own scheduler instance (§3.2.2).
	Device uint8
	// Volume binds the tenant to a logical volume by wire handle
	// (OpVolCreate's response Handle); 0 keeps the raw-device addressing
	// every pre-volume client uses. When set, the tenant's OpRead/
	// OpWrite/OpTrim LBAs are volume-logical and the ACL range is checked
	// against the volume's logical size.
	Volume     uint8
	IOPS       uint32
	LatencyP95 uint64
	// FirstLBA and LBACount define the namespace (logical block range)
	// the tenant may access; LBACount 0 means the whole device.
	FirstLBA uint32
	LBACount uint32
	// Writable grants write permission (the paper's per-namespace ACL).
	Writable bool
}

// RegistrationSize is the encoded size of a Registration.
const RegistrationSize = 24

// Marshal encodes the registration.
func (r *Registration) Marshal() []byte {
	b := make([]byte, RegistrationSize)
	if r.BestEffort {
		b[0] = 1
	}
	b[1] = r.ReadPercent
	b[2] = r.Device
	b[3] = r.Volume
	binary.BigEndian.PutUint32(b[4:], r.IOPS)
	binary.BigEndian.PutUint64(b[8:], r.LatencyP95)
	binary.BigEndian.PutUint32(b[16:], r.FirstLBA)
	cnt := r.LBACount & 0xFFFFFF
	flags := uint32(0)
	if r.Writable {
		flags = 1
	}
	binary.BigEndian.PutUint32(b[20:], cnt<<8|flags)
	return b
}

// Unmarshal decodes a registration.
func (r *Registration) Unmarshal(b []byte) error {
	if len(b) < RegistrationSize {
		return fmt.Errorf("protocol: short registration: %d bytes", len(b))
	}
	r.BestEffort = b[0] == 1
	r.ReadPercent = b[1]
	r.Device = b[2]
	r.Volume = b[3]
	r.IOPS = binary.BigEndian.Uint32(b[4:])
	r.LatencyP95 = binary.BigEndian.Uint64(b[8:])
	r.FirstLBA = binary.BigEndian.Uint32(b[16:])
	v := binary.BigEndian.Uint32(b[20:])
	r.LBACount = v >> 8
	r.Writable = v&1 == 1
	if r.ReadPercent > 100 {
		return fmt.Errorf("protocol: read percent %d out of range", r.ReadPercent)
	}
	return nil
}

// TenantStats is the OpStats response payload: the per-tenant accounting
// counters of the QoS scheduler.
//
// Layout (64 bytes): eight big-endian 64-bit fields in declaration order.
type TenantStats struct {
	// Enqueued and Submitted count requests through the tenant's queue.
	Enqueued  uint64
	Submitted uint64
	// SubmittedTokens is the total admitted cost in millitokens.
	SubmittedTokens uint64
	// NegLimitHits counts rounds ended at the burst deficit floor.
	NegLimitHits uint64
	// Donated/Claimed are global-bucket traffic in millitokens.
	Donated uint64
	Claimed uint64
	// QueueLen is the current software queue length.
	QueueLen uint64
	// Tokens is the current balance in millitokens (two's complement; LC
	// balances may be negative).
	Tokens int64
}

// TenantStatsSize is the encoded size of TenantStats.
const TenantStatsSize = 64

// Marshal encodes the stats.
func (t *TenantStats) Marshal() []byte {
	b := make([]byte, TenantStatsSize)
	for i, v := range []uint64{
		t.Enqueued, t.Submitted, t.SubmittedTokens, t.NegLimitHits,
		t.Donated, t.Claimed, t.QueueLen, uint64(t.Tokens),
	} {
		binary.BigEndian.PutUint64(b[i*8:], v)
	}
	return b
}

// Unmarshal decodes the stats.
func (t *TenantStats) Unmarshal(b []byte) error {
	if len(b) < TenantStatsSize {
		return fmt.Errorf("protocol: short tenant stats: %d bytes", len(b))
	}
	t.Enqueued = binary.BigEndian.Uint64(b[0:])
	t.Submitted = binary.BigEndian.Uint64(b[8:])
	t.SubmittedTokens = binary.BigEndian.Uint64(b[16:])
	t.NegLimitHits = binary.BigEndian.Uint64(b[24:])
	t.Donated = binary.BigEndian.Uint64(b[32:])
	t.Claimed = binary.BigEndian.Uint64(b[40:])
	t.QueueLen = binary.BigEndian.Uint64(b[48:])
	t.Tokens = int64(binary.BigEndian.Uint64(b[56:]))
	return nil
}

// Message is a decoded header plus payload.
type Message struct {
	Header  Header
	Payload []byte
	// ChecksumErr is set by ReadMessage when the message carried
	// FlagChecksum and the CRC32C trailer did not match the payload. The
	// (stripped) payload is still delivered so callers can count/inspect,
	// but it must not be trusted.
	ChecksumErr bool
	// TraceID and ParentSpan carry the stripped trace-context trailer of
	// a FlagTraced message: the end-to-end trace id minted by the
	// originating client, and the span id of the hop that sent this
	// frame. Zero on untraced messages.
	TraceID    uint64
	ParentSpan uint64

	// hb is the header read scratch, kept inside the (reusable) Message so
	// a steady-state read loop performs zero heap allocations: a local
	// [HeaderSize]byte array would escape through the io.Reader interface
	// call and be re-allocated on every message.
	hb [HeaderSize]byte
}

// Allocator provides payload storage to ReadMessageInto. The returned
// slice must have length n (capacity may exceed it, e.g. a bufpool class).
// A nil Allocator falls back to make.
type Allocator func(n int) []byte

// ReadMessage reads one framed message into a fresh Message with a fresh
// payload allocation. Hot paths should prefer ReadMessageInto with a
// reused Message and a pooled Allocator.
func ReadMessage(r io.Reader) (*Message, error) {
	m := &Message{}
	if err := ReadMessageInto(r, m, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadMessageInto reads one framed message into m, drawing payload storage
// from alloc (make when nil). m is fully overwritten; reusing one Message
// per read loop plus a pooled Allocator makes the steady-state read path
// allocation-free. When the header carries FlagChecksum and a payload, the
// trailing CRC32C is verified and stripped in place (no extra copy):
// Payload and Header.Len reflect the data bytes only, and ChecksumErr
// reports a mismatch.
func ReadMessageInto(r io.Reader, m *Message, alloc Allocator) error {
	if _, err := io.ReadFull(r, m.hb[:]); err != nil {
		return err
	}
	m.Payload = nil
	m.ChecksumErr = false
	m.TraceID, m.ParentSpan = 0, 0
	if err := m.Header.Unmarshal(m.hb[:]); err != nil {
		return err
	}
	if m.Header.Len > 0 {
		if alloc != nil {
			m.Payload = alloc(int(m.Header.Len))
		} else {
			m.Payload = make([]byte, m.Header.Len)
		}
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return fmt.Errorf("protocol: truncated payload: %w", err)
		}
	}
	m.verifyTrace()
	m.verifyChecksum()
	return nil
}

// UnmarshalFrame decodes one complete framed message from b in place: the
// payload aliases b (no copy, no allocation). The datagram fast path —
// the caller owns b (a pooled receive buffer) and must keep it alive as
// long as the payload is referenced.
func (m *Message) UnmarshalFrame(b []byte) error {
	m.Payload = nil
	m.ChecksumErr = false
	m.TraceID, m.ParentSpan = 0, 0
	if err := m.Header.Unmarshal(b); err != nil {
		return err
	}
	if int(m.Header.Len) != len(b)-HeaderSize {
		return fmt.Errorf("protocol: frame length %d, header says %d", len(b)-HeaderSize, m.Header.Len)
	}
	if m.Header.Len > 0 {
		m.Payload = b[HeaderSize:]
	}
	m.verifyTrace()
	m.verifyChecksum()
	return nil
}

// Splitter cuts a byte stream into messages as its bytes arrive, in any
// chunking: the nonblocking reader's form of ReadMessageInto. Read into
// Space, report the count to Fill, then call Next until it reports no
// complete message. Next never consumes a byte past the message it
// returns, and a payload lands in storage drawn from the Allocator, so a
// frame larger than the receive buffer streams through it and at most a
// partial header ever stays behind in the buffer.
type Splitter struct {
	buf     []byte // receive buffer; buf[r:w] is read but not yet consumed
	r, w    int
	pending bool   // hdr is decoded and body is being filled
	hdr     Header // the pending message's header
	body    []byte // the pending message's payload storage
	got     int    // bytes of body filled so far
}

// Reset starts a new stream over buf, which must hold at least a header.
func (s *Splitter) Reset(buf []byte) { *s = Splitter{buf: buf} }

// Space returns the buffer's free tail for the next read, first moving
// the unconsumed bytes to the front.
func (s *Splitter) Space() []byte {
	if s.r > 0 {
		s.w = copy(s.buf, s.buf[s.r:s.w])
		s.r = 0
	}
	return s.buf[s.w:]
}

// Fill records that n bytes were read into the slice Space returned.
func (s *Splitter) Fill(n int) { s.w += n }

// Next decodes the next complete message into m exactly as
// ReadMessageInto would from the same bytes. It reports false when the
// stream needs more bytes; an error (bad magic, oversize Len) leaves the
// stream unusable.
func (s *Splitter) Next(m *Message, alloc Allocator) (bool, error) {
	if !s.pending {
		if s.w-s.r < HeaderSize {
			return false, nil
		}
		if err := s.hdr.Unmarshal(s.buf[s.r:s.w]); err != nil {
			return false, err
		}
		s.r += HeaderSize
		s.pending, s.body, s.got = true, nil, 0
		if s.hdr.Len > 0 {
			if alloc == nil {
				alloc = func(n int) []byte { return make([]byte, n) }
			}
			s.body = alloc(int(s.hdr.Len))
		}
	}
	n := copy(s.body[s.got:], s.buf[s.r:s.w])
	s.r += n
	s.got += n
	if s.got < len(s.body) {
		return false, nil
	}
	s.pending = false
	m.Header, m.Payload, m.ChecksumErr, m.TraceID, m.ParentSpan = s.hdr, s.body, false, 0, 0
	m.verifyTrace()
	m.verifyChecksum()
	return true, nil
}

// verifyTrace strips the trace-context trailer when present. Runs before
// verifyChecksum: the trace trailer is outermost on the wire, so the
// checksum trailer (and the CRC it carries over the data bytes) is only
// reachable once the trace context is gone.
func (m *Message) verifyTrace() {
	if m.Header.Flags&FlagTraced != 0 && m.Header.Len >= TraceSize {
		n := len(m.Payload) - TraceSize
		m.TraceID = binary.BigEndian.Uint64(m.Payload[n:])
		m.ParentSpan = binary.BigEndian.Uint64(m.Payload[n+8:])
		m.Payload = m.Payload[:n]
		m.Header.Len = uint32(n)
	}
}

// verifyChecksum strips and checks the CRC32C trailer when present.
func (m *Message) verifyChecksum() {
	if m.Header.Flags&FlagChecksum != 0 && m.Header.Len >= ChecksumSize {
		n := len(m.Payload) - ChecksumSize
		want := binary.BigEndian.Uint32(m.Payload[n:])
		m.Payload = m.Payload[:n]
		m.Header.Len = uint32(n)
		if Checksum(m.Payload) != want {
			m.ChecksumErr = true
		}
	}
}

// WriteMessage writes a framed message. hdr.Len is forced to len(payload).
func WriteMessage(w io.Writer, hdr *Header, payload []byte) error {
	hdr.Len = uint32(len(payload))
	if hdr.Len > MaxPayload {
		return fmt.Errorf("protocol: payload %d exceeds max %d", hdr.Len, MaxPayload)
	}
	buf := make([]byte, HeaderSize+len(payload))
	hdr.MarshalTo(buf)
	copy(buf[HeaderSize:], payload)
	_, err := w.Write(buf)
	return err
}

// AppendMessage appends the framed message to dst and returns the
// extended slice. hdr.Len is forced to len(payload). With sufficient
// capacity in dst — the batching writers size their arenas up front — no
// allocation happens; this is the wire-batch building block that replaced
// WriteMessage's per-call frame allocation on the hot path.
func AppendMessage(dst []byte, hdr *Header, payload []byte) ([]byte, error) {
	hdr.Len = uint32(len(payload))
	if hdr.Len > MaxPayload {
		return dst, fmt.Errorf("protocol: payload %d exceeds max %d", hdr.Len, MaxPayload)
	}
	off := len(dst)
	dst = append(dst, zeroHeader[:]...)
	hdr.MarshalTo(dst[off:])
	return append(dst, payload...), nil
}

// zeroHeader reserves header space in AppendMessage without a make call.
var zeroHeader [HeaderSize]byte
