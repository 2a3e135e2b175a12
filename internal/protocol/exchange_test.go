package protocol

import (
	"net"
	"strings"
	"testing"
	"time"
)

// serveOnce accepts connections and hands each request to reply, which
// returns the response header to send (nil: hold the connection open and
// never answer).
func serveOnce(t *testing.T, reply func(req *Header) *Header) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop); ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				m, err := ReadMessage(c)
				if err != nil {
					return
				}
				if rsp := reply(&m.Header); rsp != nil {
					WriteMessage(c, rsp, m.Payload)
					return
				}
				<-stop
			}()
		}
	}()
	return ln.Addr().String()
}

func TestExchangeRoundTrip(t *testing.T) {
	addr := serveOnce(t, func(req *Header) *Header {
		return &Header{Opcode: req.Opcode, Flags: FlagResponse, Epoch: req.Epoch + 1, Status: StatusStaleEpoch}
	})
	dialed := ""
	dial := func(a string) (net.Conn, error) {
		dialed = a
		return net.Dial("tcp", a)
	}
	m, err := Exchange(dial, addr, time.Second, &Header{Opcode: OpShardMap, Epoch: 4}, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if dialed != addr {
		t.Errorf("dial seam saw %q, want %q", dialed, addr)
	}
	// A non-OK status is the caller's to judge, not an exchange failure.
	if m.Header.Epoch != 5 || m.Header.Status != StatusStaleEpoch || string(m.Payload) != "payload" {
		t.Errorf("response = %+v payload %q", m.Header, m.Payload)
	}
}

func TestExchangeTimesOutOnSilentPeer(t *testing.T) {
	addr := serveOnce(t, func(*Header) *Header { return nil })
	const timeout = 150 * time.Millisecond
	start := time.Now()
	_, err := Exchange(nil, addr, timeout, &Header{Opcode: OpPing}, nil)
	if err == nil {
		t.Fatal("exchange with a peer that never answers succeeded")
	}
	if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Errorf("error = %v, want a timeout", err)
	}
	if el := time.Since(start); el < timeout || el > 10*timeout {
		t.Errorf("returned after %v, want about %v", el, timeout)
	}
}

func TestExchangeRefusesWrongResponse(t *testing.T) {
	for name, rsp := range map[string]Header{
		"wrong opcode":     {Opcode: OpPing, Flags: FlagResponse},
		"no response flag": {Opcode: OpFence},
	} {
		rsp := rsp
		addr := serveOnce(t, func(*Header) *Header { return &rsp })
		_, err := Exchange(nil, addr, time.Second, &Header{Opcode: OpFence, Epoch: 2}, nil)
		if err == nil || !strings.Contains(err.Error(), "unexpected") {
			t.Errorf("%s: err = %v, want an unexpected-response error", name, err)
		}
	}
}

func TestExchangeDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Exchange(nil, addr, time.Second, &Header{Opcode: OpPing}, nil); err == nil {
		t.Fatal("exchange with a closed port succeeded")
	}
}
