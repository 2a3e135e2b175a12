package cluster

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/protocol"
)

// Applier is the backup server's replication surface: internal/server
// implements it. Replicated writes bypass the QoS scheduler and the token
// accounting entirely — replication is infrastructure traffic, not tenant
// traffic, so it must not charge (or be shed against) any tenant bucket.
type Applier interface {
	// ApplyReplicate applies one replicated write (or catch-up chunk) to
	// device 0 and returns the ack status. StatusStaleEpoch means this
	// server's epoch moved past the sender's — the deposed-primary fence.
	ApplyReplicate(lba uint32, payload []byte, epoch uint16) protocol.Status
	// AdoptEpoch raises the server's epoch to e if higher (join
	// handshake convergence).
	AdoptEpoch(e uint16)
	// ClusterEpoch returns the server's current epoch.
	ClusterEpoch() uint16
	// IsBackupRole reports whether the server still runs as a backup;
	// a promotion flips it off and the join loop exits.
	IsBackupRole() bool
}

// TracedApplier is an optional extension of Applier: when the applier
// implements it, replicated frames that carried a FlagTraced trailer are
// applied through ApplyReplicateTraced so the backup can record the
// apply as a child span in the write's cross-node trace timeline.
// Appliers that don't implement it lose nothing but the span.
type TracedApplier interface {
	ApplyReplicateTraced(lba uint32, payload []byte, epoch uint16, trace, parent uint64) protocol.Status
}

// BackupOptions tune the backup join loop.
type BackupOptions struct {
	// RetryBase/RetryMax bound the reconnect backoff when the primary is
	// unreachable (defaults 50ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Dialer optionally replaces net.Dial (fault-injection harnesses).
	Dialer func(addr string) (net.Conn, error)
	// Logf receives join-loop events (may be nil).
	Logf func(format string, args ...any)
}

// Backup runs the backup server's side of replication: it dials the
// primary, sends OpJoin, applies the catch-up stream and live replicated
// writes, and acks each one, re-joining with backoff when the connection
// dies. The loop exits when Stop is called or the server is promoted.
type Backup struct {
	primary string
	app     Applier
	opts    BackupOptions

	mu   sync.Mutex
	conn net.Conn

	applied atomic.Uint64
	joins   atomic.Uint64
	stopped atomic.Bool
	done    chan struct{}
}

// StartBackup launches the join loop against the primary's address.
func StartBackup(primaryAddr string, app Applier, opts BackupOptions) *Backup {
	if opts.RetryBase <= 0 {
		opts.RetryBase = 50 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 2 * time.Second
	}
	b := &Backup{primary: primaryAddr, app: app, opts: opts, done: make(chan struct{})}
	go b.loop()
	return b
}

// Applied returns how many replicated writes (and catch-up chunks) this
// backup has applied.
func (b *Backup) Applied() uint64 { return b.applied.Load() }

// Joins returns how many times the backup has (re)joined the primary.
func (b *Backup) Joins() uint64 { return b.joins.Load() }

// Stop halts the join loop and closes any live connection. It does not
// block on the loop goroutine beyond closing its connection.
func (b *Backup) Stop() {
	if b.stopped.Swap(true) {
		return
	}
	b.mu.Lock()
	c := b.conn
	b.mu.Unlock()
	if c != nil {
		c.Close()
	}
	<-b.done
}

func (b *Backup) logf(format string, args ...any) {
	if b.opts.Logf != nil {
		b.opts.Logf(format, args...)
	}
}

// dialTimeout bounds the connect to the primary: Stop waits for the join
// loop, so a blackholed primary must not hold it for the kernel's
// connect timeout.
const dialTimeout = 2 * time.Second

func (b *Backup) dial() (net.Conn, error) {
	if b.opts.Dialer != nil {
		return b.opts.Dialer(b.primary)
	}
	return net.DialTimeout("tcp", b.primary, dialTimeout)
}

func (b *Backup) loop() {
	defer close(b.done)
	backoff := b.opts.RetryBase
	for !b.stopped.Load() && b.app.IsBackupRole() {
		if err := b.session(); err != nil {
			b.logf("cluster: backup session: %v", err)
		}
		if b.stopped.Load() || !b.app.IsBackupRole() {
			return
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > b.opts.RetryMax {
			backoff = b.opts.RetryMax
		}
	}
}

// session runs one join: handshake, then apply-and-ack until the
// connection dies or the backup is promoted/stopped.
func (b *Backup) session() error {
	c, err := b.dial()
	if err != nil {
		return err
	}
	b.mu.Lock()
	if b.stopped.Load() {
		b.mu.Unlock()
		c.Close()
		return nil
	}
	b.conn = c
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.conn = nil
		b.mu.Unlock()
		c.Close()
	}()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(c, 256<<10)
	bw := bufio.NewWriterSize(c, 64<<10)

	// Join handshake: offer our epoch, adopt the primary's (max-merge on
	// both sides keeps the pair converged after restarts).
	join := protocol.Header{Opcode: protocol.OpJoin, Epoch: b.app.ClusterEpoch()}
	if err := protocol.WriteMessage(bw, &join, nil); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	m, err := protocol.ReadMessage(br)
	if err != nil {
		return err
	}
	if m.Header.Status != protocol.StatusOK {
		return &JoinRefusedError{Status: m.Header.Status}
	}
	b.app.AdoptEpoch(m.Header.Epoch)
	b.joins.Add(1)
	b.logf("cluster: joined primary %s at epoch %d", b.primary, b.app.ClusterEpoch())

	// Steady-state apply loop on pooled buffers: one reused Message plus a
	// per-iteration lease sized to the incoming frame (released as soon as
	// the write is applied). Acks coalesce adaptively — each ack is written
	// into bw and flushed only when no further replicated frame is already
	// buffered, so a burst of live forwards costs one flush, while the
	// ack-paced catch-up stream (primary waits for each ack before the next
	// chunk) still sees every ack immediately: between chunks br.Buffered()
	// is always zero.
	var msg protocol.Message
	var lease *bufpool.Buf
	alloc := func(n int) []byte {
		lease = bufpool.Get(n)
		return lease.Bytes()
	}
	for !b.stopped.Load() && b.app.IsBackupRole() {
		lease = nil
		if err := protocol.ReadMessageInto(br, &msg, alloc); err != nil {
			bufpool.ReleaseIf(lease)
			return err
		}
		if msg.Header.Opcode != protocol.OpReplicate || msg.Header.IsResponse() {
			bufpool.ReleaseIf(lease)
			if msg.Header.Opcode == protocol.OpJoin && !msg.Header.IsResponse() && msg.Header.Status != protocol.StatusOK {
				// The primary's abort marker: its catch-up died and it
				// detached us. Rejoin (the loop's backoff) for a fresh one.
				return errors.New("cluster: catch-up aborted by primary: " + msg.Header.Status.String())
			}
			continue // tolerate anything else on the channel
		}
		var st protocol.Status
		if ta, ok := b.app.(TracedApplier); ok && msg.TraceID != 0 {
			st = ta.ApplyReplicateTraced(msg.Header.LBA, msg.Payload, msg.Header.Epoch, msg.TraceID, msg.ParentSpan)
		} else {
			st = b.app.ApplyReplicate(msg.Header.LBA, msg.Payload, msg.Header.Epoch)
		}
		bufpool.ReleaseIf(lease) // payload applied; the lease is done
		if st == protocol.StatusOK {
			b.applied.Add(1)
		}
		ack := protocol.Header{
			Opcode: protocol.OpReplicate,
			Flags:  protocol.FlagResponse,
			Status: st,
			Epoch:  b.app.ClusterEpoch(),
			Cookie: msg.Header.Cookie,
			LBA:    msg.Header.LBA,
			Count:  msg.Header.Count,
		}
		if err := protocol.WriteMessage(bw, &ack, nil); err != nil {
			return err
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		if st == protocol.StatusStaleEpoch {
			// We fenced the sender; it will detach. Flush the fencing ack
			// (it may still be sitting in bw) and drop the session so a
			// genuinely newer primary can be joined (not this one).
			if err := bw.Flush(); err != nil {
				return err
			}
			return nil
		}
	}
	return bw.Flush()
}

// JoinRefusedError reports a primary that refused the OpJoin handshake.
type JoinRefusedError struct{ Status protocol.Status }

func (e *JoinRefusedError) Error() string {
	return "cluster: join refused: " + e.Status.String()
}
