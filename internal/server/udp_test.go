package server

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

func startUDPServer(t *testing.T, mutate func(*Config)) (*Server, *client.Client) {
	t.Helper()
	cfg := Config{
		Addr:      "127.0.0.1:0",
		UDPAddr:   "127.0.0.1:0",
		Cores:     2,
		Model:     modelA(),
		TokenRate: 1_000_000 * core.TokenUnit,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg, storage.NewMem(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if srv.UDPAddr() == "" {
		t.Fatal("UDP endpoint not bound")
	}
	cl, err := client.DialUDP(srv.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestUDPRegisterWriteRead(t *testing.T) {
	_, cl := startUDPServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x3C}, 4096)
	if err := cl.Write(h, 16, data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(h, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("UDP round trip corrupted data")
	}
}

func TestUDPAndTCPShareTenants(t *testing.T) {
	srv, udpClient := startUDPServer(t, nil)
	tcpClient, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tcpClient.Close()
	// Register over TCP; use the handle over UDP (tenants are
	// server-global, as connections sharing a tenant are in the paper).
	h, err := tcpClient.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x77}, 512)
	if err := tcpClient.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := udpClient.Read(h, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("UDP read did not see TCP write")
	}
}

func TestUDPOversizeIORejected(t *testing.T) {
	_, cl := startUDPServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	// Client-side guard.
	if _, err := cl.GoRead(h, 0, MaxUDPIO+4096); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("oversize UDP read: %v, want ErrBadRequest", err)
	}
	// At the cap it works.
	if _, err := cl.Read(h, 0, MaxUDPIO); err != nil {
		t.Fatalf("read at UDP cap failed: %v", err)
	}
}

func TestUDPBarrier(t *testing.T) {
	_, cl := startUDPServer(t, func(c *Config) {
		c.WriteLatency = 10_000_000 // 10ms
	})
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x88}, 512)
	if _, err := cl.GoWrite(h, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := cl.Barrier(h); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(h, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("UDP barrier did not order the read after the write")
	}
}

func TestUDPConcurrentClients(t *testing.T) {
	srv, _ := startUDPServer(t, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.DialUDP(srv.UDPAddr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			h, err := cl.Register(beWritable())
			if err != nil {
				errs <- err
				return
			}
			base := uint32(i * 4096)
			for rep := 0; rep < 30; rep++ {
				data := bytes.Repeat([]byte{byte(i*100 + rep)}, 512)
				if err := cl.Write(h, base+uint32(rep), data); err != nil {
					errs <- err
					return
				}
				got, err := cl.Read(h, base+uint32(rep), 512)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- errors.New("udp concurrent corruption")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUDPMalformedDatagramIgnored(t *testing.T) {
	srv, cl := startUDPServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	// Fire garbage at the UDP port directly; the server must survive.
	raw, err := client.DialUDP(srv.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Close()
	conn, err := netDialUDP(srv.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("not a reflex message"))
	conn.Write(make([]byte, protocol.HeaderSize)) // zero magic
	// The real client still works afterwards.
	if _, err := cl.Read(h, 0, 512); err != nil {
		t.Fatalf("server broken after malformed datagrams: %v", err)
	}
}

// netDialUDP opens a raw UDP socket to addr for malformed-input tests.
func netDialUDP(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, ua)
}
