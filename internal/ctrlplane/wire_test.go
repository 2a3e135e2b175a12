package ctrlplane

import (
	"bytes"
	"testing"

	"github.com/reflex-go/reflex/internal/shard"
	"github.com/reflex-go/reflex/internal/volume"
)

// TestCursorDecodersRefuseTruncationAndHugeLengths feeds the three
// payload decoders built on protocol.Cursor — the shard map, a control-
// plane append request and a volume image — every proper prefix of a
// valid payload and 0xFFFFFFFF in each of their length fields: each must
// return an error, and none may panic or slice out of range.
func TestCursorDecodersRefuseTruncationAndHugeLengths(t *testing.T) {
	m := shard.BuildMap([]shard.Node{
		{Name: "n0", Addrs: []string{"10.0.0.1:7700", "10.0.0.2:7700"}},
		{Name: "n1", Addrs: []string{"10.0.0.3:7700"}},
	}, 8, 1024, 16)
	mapRaw := m.Marshal()

	entryMap := []byte("marshaled-map")
	app := (&appendReq{Term: 3, Leader: "r0", PrevIndex: 9, PrevTerm: 2, Commit: 8, Entries: []Entry{
		{Index: 10, Term: 3, Kind: EntrySeed, Shard: -1, Src: "n0", Dest: "n1", Detail: "seed"},
		{Index: 11, Term: 3, Kind: EntryNoop, Shard: 4, Map: entryMap},
	}}).marshal()

	img := volume.Image{Name: "vol", Blocks: 4096, ExtentBlocks: 16, Gen: 2,
		Layers: []volume.LayerImage{
			{Gen: 1, Ents: []volume.Extent{{Logical: 0, Phys: 3}, {Logical: 5, Phys: 1}}},
			{Gen: 2, Ents: []volume.Extent{{Logical: 1, Phys: 2}}},
		},
		Snaps: []uint64{1}}
	imgRaw := img.Marshal()
	imgLayerCount := 4 + 2 + 2 + len(img.Name) + 8 + 4 + 8

	for _, tc := range []struct {
		name   string
		raw    []byte
		decode func([]byte) error
		// lengths are the offsets of u32 count/length fields.
		lengths []int
	}{
		{"shard map", mapRaw,
			func(b []byte) error { _, err := shard.Unmarshal(b); return err },
			[]int{len(mapRaw) - 4*len(m.Assign) - 4}},
		{"ctrlplane append", app,
			func(b []byte) error { _, err := parseAppendReq(b); return err },
			// The last entry ends: u32 len | Map | u16 0 (empty Detail).
			[]int{len(app) - 2 - len(entryMap) - 4}},
		{"volume image", imgRaw,
			func(b []byte) error { _, err := volume.UnmarshalImage(b); return err },
			[]int{imgLayerCount, imgLayerCount + 4 + 8, len(imgRaw) - 8*len(img.Snaps) - 4}},
	} {
		if err := tc.decode(tc.raw); err != nil {
			t.Fatalf("%s: valid payload refused: %v", tc.name, err)
		}
		for n := 0; n < len(tc.raw); n++ {
			if err := tc.decode(tc.raw[:n:n]); err == nil {
				t.Errorf("%s: accepted when truncated to %d of %d bytes", tc.name, n, len(tc.raw))
			}
		}
		for _, off := range tc.lengths {
			bad := bytes.Clone(tc.raw)
			copy(bad[off:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			if err := tc.decode(bad); err == nil {
				t.Errorf("%s: accepted a length of 0xFFFFFFFF at offset %d", tc.name, off)
			}
		}
		// No 4-byte window anywhere may make a decoder panic, length field
		// or not.
		for off := 0; off+4 <= len(tc.raw); off++ {
			bad := bytes.Clone(tc.raw)
			copy(bad[off:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			tc.decode(bad)
		}
	}
}
