package shard

import (
	"fmt"
	"net"
	"time"

	"github.com/reflex-go/reflex/internal/protocol"
)

// Raw wire helpers: the control plane (membership probes, map installs,
// promotion, drain polling) speaks one-shot protocol.Exchange calls over
// short-lived TCP connections instead of holding client pools — control
// traffic is rare and the simplicity keeps the coordinator dependency-
// free of the data-path client.

func (c *CoordinatorConfig) dial(addr string, timeout time.Duration) (net.Conn, error) {
	if c.Dialer != nil {
		return c.Dialer(addr)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// probeResult is one OpPing exchange's outcome.
type probeResult struct {
	epoch   uint16
	role    uint32 // protocol.RoleBackupBit / RoleFencedBit
	pending uint32 // migration forwards awaiting a sink ack
	err     error
}

// probe pings addr once.
func probe(dial protocol.DialFunc, addr string, timeout time.Duration) probeResult {
	m, err := protocol.Exchange(dial, addr, timeout, &protocol.Header{Opcode: protocol.OpPing}, nil)
	if err != nil {
		return probeResult{err: err}
	}
	return probeResult{epoch: m.Header.Epoch, role: m.Header.Count, pending: m.Header.LBA}
}

// installMap offers a marshaled map to addr, returning the node's
// resulting version. StatusStaleEpoch (the node already holds a newer
// map) is not an error here — the caller compares versions.
func installMap(dial protocol.DialFunc, addr string, timeout time.Duration, raw []byte) (uint32, error) {
	m, err := protocol.Exchange(dial, addr, timeout, &protocol.Header{Opcode: protocol.OpShardMap}, raw)
	if err != nil {
		return 0, err
	}
	if m.Header.Status != protocol.StatusOK && m.Header.Status != protocol.StatusStaleEpoch {
		return 0, fmt.Errorf("shard: install at %s refused: %s", addr, m.Header.Status)
	}
	return m.Header.LBA, nil
}

// fetchMap retrieves addr's installed shard map, or (nil, nil) when the
// node holds none yet.
func fetchMap(dial protocol.DialFunc, addr string, timeout time.Duration) (*Map, error) {
	m, err := protocol.Exchange(dial, addr, timeout, &protocol.Header{Opcode: protocol.OpShardMap}, nil)
	if err != nil {
		return nil, err
	}
	if m.Header.Status != protocol.StatusOK {
		return nil, fmt.Errorf("shard: map fetch at %s refused: %s", addr, m.Header.Status)
	}
	if m.Header.LBA == 0 || len(m.Payload) == 0 {
		return nil, nil
	}
	return Unmarshal(m.Payload)
}

// fetchMapVersion retrieves just the version of addr's installed map
// (0 when none) without parsing the payload — the anti-entropy probe.
func fetchMapVersion(dial protocol.DialFunc, addr string, timeout time.Duration) (uint32, error) {
	m, err := protocol.Exchange(dial, addr, timeout, &protocol.Header{Opcode: protocol.OpShardMap}, nil)
	if err != nil {
		return 0, err
	}
	if m.Header.Status != protocol.StatusOK {
		return 0, fmt.Errorf("shard: map fetch at %s refused: %s", addr, m.Header.Status)
	}
	return m.Header.LBA, nil
}

// promote asks addr to serve as primary at epoch e.
func promote(dial protocol.DialFunc, addr string, timeout time.Duration, e uint16) (uint16, error) {
	m, err := protocol.Exchange(dial, addr, timeout, &protocol.Header{Opcode: protocol.OpPromote, Epoch: e}, nil)
	if err != nil {
		return 0, err
	}
	if m.Header.Status != protocol.StatusOK {
		return m.Header.Epoch, fmt.Errorf("shard: promote %s at epoch %d refused: %s", addr, e, m.Header.Status)
	}
	return m.Header.Epoch, nil
}

// fence tells addr that epoch e exists (best-effort split-brain guard).
func fence(dial protocol.DialFunc, addr string, timeout time.Duration, e uint16) {
	protocol.Exchange(dial, addr, timeout, &protocol.Header{Opcode: protocol.OpFence, Epoch: e}, nil)
}
