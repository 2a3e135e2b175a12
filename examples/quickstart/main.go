// Quickstart: start an in-process ReFlex server over an in-memory flash
// store, connect with the user-level client library, register a tenant,
// and do remote block I/O — the minimal end-to-end path of the system.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/server"
	"github.com/reflex-go/reflex/internal/storage"
)

func main() {
	// 1. Start a ReFlex server: 64 MiB in-memory "flash", 2 scheduler
	//    threads, device-A cost model, 420K tokens/s (the rate a 500us
	//    p95 SLO allows on that device).
	srv, err := server.New(server.Config{
		Addr:  "127.0.0.1:0",
		Cores: 2,
		Model: core.CostModel{
			ReadCost:         core.TokenUnit,
			ReadOnlyReadCost: core.TokenUnit / 2,
			WriteCost:        10 * core.TokenUnit,
		},
		TokenRate:      420_000 * core.TokenUnit,
		ReadOnlyWindow: 10 * time.Millisecond,
	}, storage.NewMem(64<<20))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("server listening on", srv.Addr())

	// 2. Connect and register a best-effort tenant with write permission
	//    over the whole device.
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	handle, err := cl.Register(protocol.Registration{BestEffort: true, Writable: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered tenant, handle =", handle)

	// 3. Write a block and read it back.
	payload := make([]byte, 4096)
	copy(payload, "remote flash ~= local flash")
	if err := cl.Write(handle, 0, payload); err != nil {
		log.Fatal(err)
	}
	got, err := cl.Read(handle, 0, 4096)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %q\n", string(got[:27]))

	// 4. A quick latency probe: 1000 sequential 4KB reads, QD 1.
	start := time.Now()
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := cl.Read(handle, uint32(i*8%4096), 4096); err != nil {
			log.Fatal(err)
		}
	}
	avg := time.Since(start) / n
	fmt.Printf("QD1 read round trip over loopback TCP: avg %v\n", avg.Round(time.Microsecond))

	// 5. Tenants without write permission get errors, not data loss.
	roHandle, err := cl.Register(protocol.Registration{BestEffort: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := cl.Write(roHandle, 0, payload); err != nil {
		fmt.Println("read-only tenant write rejected:", err)
	}
}
