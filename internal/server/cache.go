package server

import (
	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/storage"
)

// cachedBackend wraps a device backend so that every write invalidates
// the read cache before the caller can acknowledge it. All mutation
// paths converge here — client OpWrite dispatch, the replication stream
// apply on a backup, and migration catch-up writes — which is what makes
// the cache's consistency argument (DESIGN.md §17) hold on every role:
// the invalidation happens after the bytes land and before any ack
// propagates, and it also bumps the fill fence so a racing fill of
// pre-write data aborts.
type cachedBackend struct {
	storage.Backend
	cache *readcache.Cache
	dev   int
}

func (cb *cachedBackend) WriteAt(p []byte, off int64) (int, error) {
	n, err := cb.Backend.WriteAt(p, off)
	if n > 0 {
		first := uint64(off) / readcache.BlockSize
		last := (uint64(off) + uint64(n) - 1) / readcache.BlockSize
		cb.cache.Invalidate(readcache.Key(cb.dev, first), last-first+1)
	}
	return n, err
}

// probeCache looks a read up in the DRAM cache at dispatch time. On a
// hit the response payload is copied into a pooled lease under the
// cache's segment lock (ctx.outLease; the pcore serves it without touching
// the backend) and the returned cost override charges the tenant the
// cache-service cost instead of a device read. On an admitted miss the
// fill fence is recorded on ctx so the pcore commits the block after the
// backend read. Reads that straddle a 4KB boundary skip the cache — the
// entry granularity is one costing page.
func (s *Server) probeCache(ctx *reqCtx, ten *stenant) core.Tokens {
	off := uint64(ctx.hdr.LBA) * protocol.BlockSize
	n := uint64(ctx.hdr.Count)
	if n == 0 || off%readcache.BlockSize+n > readcache.BlockSize {
		return 0
	}
	if ten.vol != nil {
		// Volume tenants cache at PHYSICAL blocks: a CoW break remaps the
		// logical block to a fresh extent, which changes the cache key, so
		// a snapshot-then-overwrite can never serve pre-snapshot bytes to a
		// live read (or vice versa). Unmapped and hole blocks skip the
		// cache — they read as zeros straight from the chain walk.
		poff, ok := ten.vol.Translate(int64(off), int(n))
		if !ok {
			return 0
		}
		off = uint64(poff)
	}
	key := readcache.Key(ten.device, off/readcache.BlockSize)
	lease := bufpool.Get(int(n) + protocol.ChecksumSize)
	hit, admit, epoch := s.cache.Probe(key, int(off%readcache.BlockSize), lease.Bytes()[:n])
	if hit {
		ctx.outLease = lease
		return s.devices[ten.device].cfg.Model.CacheServeCost()
	}
	lease.Release()
	// Fills only work on exactly block-aligned full-page reads: the
	// response buffer then IS the block image, so the fill is a copy of
	// bytes already read — no second backend access.
	if admit && off%readcache.BlockSize == 0 && n == readcache.BlockSize {
		ctx.fill = true
		ctx.fillKey = key
		ctx.fillEpoch = epoch
	}
	return 0
}
