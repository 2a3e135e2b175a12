package volume

import (
	"encoding/binary"
	"fmt"

	"github.com/reflex-go/reflex/internal/protocol"
)

// Image is a volume's complete extent-map state as pure data — the unit
// that gets journaled or shipped. Export captures it under the volume
// lock; Marshal/UnmarshalImage are the strict wire codec (exact length,
// sorted unique entries, bounded counts — a corrupt journal fails loudly
// instead of materializing a wrong map).
type Image struct {
	Name         string
	Blocks       uint64
	ExtentBlocks uint32
	Gen          uint64
	// Layers holds the frozen chain oldest-first, then the live map last
	// (its Gen equals the volume's current generation).
	Layers []LayerImage
	// Snaps lists which layer generations are registered snapshots.
	Snaps []uint64
}

// LayerImage is one generation's extent map.
type LayerImage struct {
	Gen  uint64
	Ents []Extent
}

// Extent maps one logical extent index to a pool extent index (or Hole).
type Extent struct {
	Logical uint32
	Phys    uint32
}

// imageMagic / imageVersion head every marshaled image.
const (
	imageMagic   = 0x5246564C // "RFVL"
	imageVersion = 1
)

// Export snapshots the volume's full map state.
func (v *Volume) Export() Image {
	v.mu.RLock()
	defer v.mu.RUnlock()
	img := Image{
		Name:         v.name,
		Blocks:       v.blocks,
		ExtentBlocks: v.mgr.extBlocks,
		Gen:          v.gen,
	}
	// Chain newest-first → collect then reverse to oldest-first.
	var chain []*layer
	for l := v.parent; l != nil; l = l.parent {
		chain = append(chain, l)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		img.Layers = append(img.Layers, layerImage(chain[i].gen, chain[i].ents))
	}
	img.Layers = append(img.Layers, layerImage(v.gen, v.live))
	for g := range v.snaps {
		img.Snaps = append(img.Snaps, g)
	}
	for i := 1; i < len(img.Snaps); i++ {
		for j := i; j > 0 && img.Snaps[j] < img.Snaps[j-1]; j-- {
			img.Snaps[j], img.Snaps[j-1] = img.Snaps[j-1], img.Snaps[j]
		}
	}
	return img
}

func layerImage(gen uint64, ents map[uint32]uint32) LayerImage {
	li := LayerImage{Gen: gen, Ents: make([]Extent, 0, len(ents))}
	for l, p := range ents {
		li.Ents = append(li.Ents, Extent{Logical: l, Phys: p})
	}
	// Sort by logical — the codec requires (and enforces) strict order.
	for i := 1; i < len(li.Ents); i++ {
		for j := i; j > 0 && li.Ents[j].Logical < li.Ents[j-1].Logical; j-- {
			li.Ents[j], li.Ents[j-1] = li.Ents[j-1], li.Ents[j]
		}
	}
	return li
}

// Marshal encodes the image:
//
//	magic u32 | version u16 | nameLen u16 | name |
//	blocks u64 | extentBlocks u32 | gen u64 |
//	layerCount u32 | per layer: gen u64, entCount u32,
//	    entries (logical u32, phys u32) sorted strictly by logical |
//	snapCount u32 | snap gens u64 each, strictly ascending
func (img Image) Marshal() []byte {
	n := 4 + 2 + 2 + len(img.Name) + 8 + 4 + 8 + 4
	for _, l := range img.Layers {
		n += 8 + 4 + 8*len(l.Ents)
	}
	n += 4 + 8*len(img.Snaps)
	b := make([]byte, 0, n)
	b = binary.BigEndian.AppendUint32(b, imageMagic)
	b = binary.BigEndian.AppendUint16(b, imageVersion)
	b = binary.BigEndian.AppendUint16(b, uint16(len(img.Name)))
	b = append(b, img.Name...)
	b = binary.BigEndian.AppendUint64(b, img.Blocks)
	b = binary.BigEndian.AppendUint32(b, img.ExtentBlocks)
	b = binary.BigEndian.AppendUint64(b, img.Gen)
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.Layers)))
	for _, l := range img.Layers {
		b = binary.BigEndian.AppendUint64(b, l.Gen)
		b = binary.BigEndian.AppendUint32(b, uint32(len(l.Ents)))
		for _, e := range l.Ents {
			b = binary.BigEndian.AppendUint32(b, e.Logical)
			b = binary.BigEndian.AppendUint32(b, e.Phys)
		}
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.Snaps)))
	for _, g := range img.Snaps {
		b = binary.BigEndian.AppendUint64(b, g)
	}
	return b
}

// maxImageEnts bounds any single count field so a corrupt length can't
// drive a giant allocation before validation catches it.
const maxImageEnts = 1 << 24

// UnmarshalImage decodes and validates a marshaled image. Strict: short
// buffers, trailing bytes, unsorted or duplicate entries, out-of-range
// names and non-ascending layer generations are all errors.
func UnmarshalImage(b []byte) (Image, error) {
	var img Image
	r := protocol.NewCursor(b, "volume: image")
	if m := r.U32(); m != imageMagic {
		return img, fmt.Errorf("volume: bad image magic %#x", m)
	}
	if v := r.U16(); v != imageVersion {
		return img, fmt.Errorf("volume: unsupported image version %d", v)
	}
	nameLen := int(r.U16())
	name := r.Take(nameLen)
	if r.Err() != nil {
		return img, r.Err()
	}
	if nameLen == 0 || nameLen > 255 {
		return img, fmt.Errorf("volume: bad image name length %d", nameLen)
	}
	img.Name = string(name)
	img.Blocks = r.U64()
	img.ExtentBlocks = r.U32()
	img.Gen = r.U64()
	if r.Err() == nil && (img.Blocks == 0 || img.ExtentBlocks == 0) {
		return img, fmt.Errorf("volume: zero size in image")
	}
	nLayers := int(r.U32())
	if r.Err() != nil {
		return img, r.Err()
	}
	if nLayers == 0 || nLayers > maxImageEnts {
		return img, fmt.Errorf("volume: bad layer count %d", nLayers)
	}
	prevGen := uint64(0)
	for i := 0; i < nLayers; i++ {
		gen := r.U64()
		nEnts := int(r.U32())
		if r.Err() != nil {
			return img, r.Err()
		}
		if gen <= prevGen && i > 0 {
			return img, fmt.Errorf("volume: layer generations not ascending (%d after %d)", gen, prevGen)
		}
		if gen == 0 || nEnts > maxImageEnts {
			return img, fmt.Errorf("volume: bad layer (gen %d, %d entries)", gen, nEnts)
		}
		prevGen = gen
		li := LayerImage{Gen: gen, Ents: make([]Extent, 0, min(nEnts, 4096))}
		prevLog := int64(-1)
		for j := 0; j < nEnts; j++ {
			log := r.U32()
			phys := r.U32()
			if r.Err() != nil {
				return img, r.Err()
			}
			if int64(log) <= prevLog {
				return img, fmt.Errorf("volume: layer %d entries not strictly sorted at %d", gen, log)
			}
			prevLog = int64(log)
			li.Ents = append(li.Ents, Extent{Logical: log, Phys: phys})
		}
		img.Layers = append(img.Layers, li)
	}
	if last := img.Layers[len(img.Layers)-1].Gen; last != img.Gen {
		return img, fmt.Errorf("volume: live layer gen %d != volume gen %d", last, img.Gen)
	}
	nSnaps := int(r.U32())
	if r.Err() != nil {
		return img, r.Err()
	}
	if nSnaps > maxImageEnts {
		return img, fmt.Errorf("volume: bad snapshot count %d", nSnaps)
	}
	prevSnap := uint64(0)
	for i := 0; i < nSnaps; i++ {
		g := r.U64()
		if r.Err() != nil {
			return img, r.Err()
		}
		if g <= prevSnap {
			return img, fmt.Errorf("volume: snapshot gens not ascending at %d", g)
		}
		prevSnap = g
		img.Snaps = append(img.Snaps, g)
	}
	if r.Remaining() != 0 {
		return img, fmt.Errorf("volume: %d trailing bytes after image", r.Remaining())
	}
	return img, nil
}

// Import reconstitutes a volume from an image on this manager's pool:
// the image's physical extent indexes are claimed out of the free list
// (journal replay onto the same device). Fails if the name or any extent
// is already taken, or the extent size disagrees with the pool's.
func (m *Manager) Import(img Image) (*Volume, error) {
	if img.ExtentBlocks != m.extBlocks {
		return nil, fmt.Errorf("volume: image extent size %d != pool %d", img.ExtentBlocks, m.extBlocks)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vols[img.Name]; ok {
		return nil, ErrExists
	}
	h, hok := m.claimHandle()
	if !hok {
		return nil, fmt.Errorf("volume: all %d handles live", MaxVolumes)
	}
	// Claim every physical extent the image references.
	var claimed []uint32
	unwind := func() {
		for _, e := range claimed {
			m.pool.release(e)
		}
	}
	for _, li := range img.Layers {
		for _, e := range li.Ents {
			if e.Phys == Hole {
				continue
			}
			if !m.pool.claim(e.Phys) {
				unwind()
				return nil, fmt.Errorf("volume: image extent %d unavailable", e.Phys)
			}
			claimed = append(claimed, e.Phys)
		}
	}
	v := &Volume{
		mgr:    m,
		name:   img.Name,
		handle: h,
		blocks: img.Blocks,
		gen:    img.Gen,
		snaps:  make(map[uint64]*layer),
	}
	// Rebuild the chain oldest-first; the last layer is the live map.
	var parent *layer
	for i, li := range img.Layers {
		ents := make(map[uint32]uint32, len(li.Ents))
		for _, e := range li.Ents {
			ents[e.Logical] = e.Phys
		}
		if i == len(img.Layers)-1 {
			v.live = ents
			v.parent = parent
			break
		}
		l := &layer{gen: li.Gen, parent: parent, ents: ents, refs: 1}
		parent = l
	}
	for _, g := range img.Snaps {
		for l := v.parent; l != nil; l = l.parent {
			if l.gen == g {
				l.refs++
				v.snaps[g] = l
				break
			}
		}
		if _, ok := v.snaps[g]; !ok {
			unwind()
			return nil, fmt.Errorf("volume: image snapshot gen %d has no layer", g)
		}
	}
	m.vols[img.Name] = v
	m.handles[h] = v
	return v, nil
}

// claim removes a specific extent index from the free list (image
// import). Returns false when the extent is out of range or already
// allocated.
func (p *Pool) claim(idx uint32) bool {
	if idx >= p.total {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, f := range p.free {
		if f == idx {
			p.free[i] = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			p.allocated++
			return true
		}
	}
	return false
}
