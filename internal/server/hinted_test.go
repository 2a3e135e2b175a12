package server

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/protocol"
)

// TestHintedWritesEndToEnd drives WriteHinted through every shape of the
// client's write frame — bare, checksummed, traced, both — and checks the
// lifetime hint survives to the server's srv_hinted_writes_total series
// and the data reads back intact.
func TestHintedWritesEndToEnd(t *testing.T) {
	for _, tc := range []struct{ trace, checksum bool }{
		{false, false}, {false, true}, {true, false}, {true, true},
	} {
		t.Run(fmt.Sprintf("trace=%v/checksum=%v", tc.trace, tc.checksum), func(t *testing.T) {
			srv, _ := startServer(t, nil)
			cl, err := client.DialOptions(srv.Addr(), client.Options{Trace: tc.trace, Checksum: tc.checksum})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			h, err := cl.Register(beWritable())
			if err != nil {
				t.Fatal(err)
			}
			short := bytes.Repeat([]byte{0x5A}, 4096)
			long := bytes.Repeat([]byte{0xC3}, 4096)
			if err := cl.WriteHinted(h, 0, short, protocol.HintShort); err != nil {
				t.Fatalf("short-hinted write: %v", err)
			}
			if err := cl.WriteHinted(h, 8, long, protocol.HintLong); err != nil {
				t.Fatalf("long-hinted write: %v", err)
			}
			for hint, want := range map[int]float64{protocol.HintNone: 0, protocol.HintShort: 1, protocol.HintLong: 1} {
				if got := srv.m.hintWrites[hint].Value(); got != want {
					t.Errorf("srv_hinted_writes_total{hint=%d} = %v, want %v", hint, got, want)
				}
			}
			for lba, want := range map[uint32][]byte{0: short, 8: long} {
				got, err := cl.Read(h, lba, len(want))
				if err != nil {
					t.Fatalf("read lba %d: %v", lba, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("lba %d read back differs from the hinted write", lba)
				}
			}
		})
	}
}
