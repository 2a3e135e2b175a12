package server

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

// startMultiServer runs a server with two devices: a fast one and a small,
// heavily throttled one.
func startMultiServer(t *testing.T) (*Server, *client.Client) {
	t.Helper()
	srv, err := NewMulti(Config{Addr: "127.0.0.1:0", Cores: 2}, []DeviceConfig{
		{
			Backend:   storage.NewMem(32 << 20),
			Model:     modelA(),
			TokenRate: 1_000_000 * core.TokenUnit,
		},
		{
			Backend: storage.NewMem(8 << 20),
			Model: core.CostModel{
				ReadCost:         core.TokenUnit,
				ReadOnlyReadCost: core.TokenUnit,
				WriteCost:        20 * core.TokenUnit, // a device-B-like drive
			},
			TokenRate: 10_000 * core.TokenUnit,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestMultiDeviceIsolatedData(t *testing.T) {
	srv, cl := startMultiServer(t)
	if srv.Devices() != 2 {
		t.Fatal("device count")
	}
	h0, err := cl.Register(protocol.Registration{BestEffort: true, Writable: true, Device: 0})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := cl.Register(protocol.Registration{BestEffort: true, Writable: true, Device: 1})
	if err != nil {
		t.Fatal(err)
	}
	d0 := bytes.Repeat([]byte{0xA0}, 512)
	d1 := bytes.Repeat([]byte{0xB1}, 512)
	if err := cl.Write(h0, 0, d0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(h1, 0, d1); err != nil {
		t.Fatal(err)
	}
	// Same LBA, different devices, different data.
	g0, err := cl.Read(h0, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := cl.Read(h1, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g0, d0) || !bytes.Equal(g1, d1) {
		t.Fatal("devices share data at the same LBA")
	}
}

func TestMultiDevicePerDeviceBounds(t *testing.T) {
	_, cl := startMultiServer(t)
	h1, err := cl.Register(protocol.Registration{BestEffort: true, Writable: true, Device: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Device 1 is 8 MiB: an LBA valid on device 0 is out of range here.
	if _, err := cl.Read(h1, (16<<20)/protocol.BlockSize, 512); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("out-of-device read: %v, want ErrBadRequest", err)
	}
}

func TestMultiDeviceUnknownDeviceRejected(t *testing.T) {
	_, cl := startMultiServer(t)
	_, err := cl.Register(protocol.Registration{BestEffort: true, Device: 7})
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("register on unknown device: %v, want ErrBadRequest", err)
	}
}

func TestMultiDeviceIndependentAdmission(t *testing.T) {
	_, cl := startMultiServer(t)
	// Device 1 has only 10K tokens/s: a 5K-IOPS 80%-read tenant needs
	// 0.8*5K + 0.2*5K*20 = 24K tokens/s -> rejected there, fine on dev 0.
	lc := protocol.Registration{ReadPercent: 80, IOPS: 5_000, LatencyP95: 1_000_000}
	lc.Device = 1
	if _, err := cl.Register(lc); !errors.Is(err, client.ErrNoCapacity) {
		t.Fatalf("oversubscribed device-1 tenant: %v, want ErrNoCapacity", err)
	}
	lc.Device = 0
	if _, err := cl.Register(lc); err != nil {
		t.Fatalf("device-0 admission failed: %v", err)
	}
}

func TestMultiDeviceIndependentThrottling(t *testing.T) {
	// The throttled device 1 (10K tokens/s) must not slow device 0 down.
	_, cl := startMultiServer(t)
	h0, err := cl.Register(protocol.Registration{BestEffort: true, Writable: true, Device: 0})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := cl.Register(protocol.Registration{BestEffort: true, Writable: true, Device: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate device 1 with writes (20 tokens each -> 500 writes/s).
	var slowCalls []*client.Call
	for i := 0; i < 100; i++ {
		call, err := cl.GoWrite(h1, uint32(i*8), make([]byte, 4096))
		if err != nil {
			t.Fatal(err)
		}
		slowCalls = append(slowCalls, call)
	}
	// Device 0 reads proceed at full speed meanwhile.
	start := time.Now()
	for i := 0; i < 200; i++ {
		if _, err := cl.Read(h0, uint32(i*8), 4096); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("device-0 reads took %v behind device-1 congestion", el)
	}
	for _, c := range slowCalls {
		<-c.Done
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
}

func TestMultiDeviceValidation(t *testing.T) {
	if _, err := NewMulti(Config{Addr: "127.0.0.1:0", Cores: 1}, nil); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := NewMulti(Config{Addr: "127.0.0.1:0", Cores: 1}, []DeviceConfig{
		{Backend: nil, Model: modelA(), TokenRate: 1},
	}); err == nil {
		t.Error("nil backend accepted")
	}
	if _, err := NewMulti(Config{Addr: "127.0.0.1:0", Cores: 1}, []DeviceConfig{
		{Backend: storage.NewMem(1024), Model: modelA(), TokenRate: 0},
	}); err == nil {
		t.Error("zero token rate accepted")
	}
	if _, err := NewMulti(Config{Addr: "127.0.0.1:0", Cores: 1}, []DeviceConfig{
		{Backend: storage.NewMem(1024), TokenRate: 1},
	}); err == nil {
		t.Error("invalid model accepted")
	}
}
