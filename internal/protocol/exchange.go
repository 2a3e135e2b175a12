package protocol

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// DialFunc dials one address. The Dialer fields of the control-plane
// configs are of this type: test seams that substitute partitions or
// fault-injecting connections for the network.
type DialFunc func(addr string) (net.Conn, error)

// Exchange performs one request/response exchange on a fresh connection
// to addr, bounded by timeout end to end: dial (net.DialTimeout when dial
// is nil), set the deadline, write one frame, read one frame, and check
// that it is the response to hdr's opcode. Control traffic — probes, map
// installs, promotions, fences, replica RPCs — is rare, so one-shot
// connections beat pooling. The status is the caller's to judge: several
// callers accept more than StatusOK.
func Exchange(dial DialFunc, addr string, timeout time.Duration, hdr *Header, payload []byte) (*Message, error) {
	var c net.Conn
	var err error
	if dial != nil {
		c, err = dial(addr)
	} else {
		c, err = net.DialTimeout("tcp", addr, timeout)
	}
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(timeout))
	frame, err := AppendMessage(nil, hdr, payload)
	if err != nil {
		return nil, err
	}
	if _, err := c.Write(frame); err != nil {
		return nil, err
	}
	var m Message
	if err := ReadMessageInto(bufio.NewReaderSize(c, 64<<10), &m, nil); err != nil {
		return nil, err
	}
	if m.Header.Opcode != hdr.Opcode || !m.Header.IsResponse() {
		return nil, fmt.Errorf("protocol: unexpected %s response to %s from %s", m.Header.Opcode, hdr.Opcode, addr)
	}
	return &m, nil
}
