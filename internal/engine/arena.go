package engine

import "sync"

// The payload arena backs RetainPayloads mode: submitted frame bytes are
// copied once into large shared slabs instead of one heap allocation per
// frame, so batch admission of thousands of small payloads costs a handful
// of chunk allocations and the delivered-frame release path is a refcount
// decrement. Payload slices handed to transports alias the chunk; a chunk
// is recycled only when every frame referencing it has reached a final
// disposition (delivered, dropped, or expired — a retry requeue keeps its
// reference), which the engine drives from accountLocked/expireLocked
// under the lane lock, so the arena itself needs no locking. Drained slabs
// go back to a process-wide pool: however many frames are in flight, a
// lane at steady state takes a recycled slab, not a fresh zeroed one.

// arenaChunkBytes is the slab size; payloads larger than a slab get a
// dedicated exact-size chunk.
const arenaChunkBytes = 64 << 10

// chunkPool recycles drained full-size slabs across lanes and engines.
var chunkPool = sync.Pool{New: func() any {
	return &arenaChunk{buf: make([]byte, arenaChunkBytes)}
}}

type arenaChunk struct {
	buf  []byte
	used int
	refs int
}

type payloadArena struct {
	cur *arenaChunk
}

// alloc copies p into arena storage and returns the aliasing slice plus
// the owning chunk (one reference, released via release). The returned
// slice is capacity-clipped so appends can never clobber a neighbor.
func (a *payloadArena) alloc(p []byte) ([]byte, *arenaChunk) {
	n := len(p)
	if n == 0 {
		return nil, nil
	}
	if n > arenaChunkBytes {
		c := &arenaChunk{buf: append([]byte(nil), p...), used: n, refs: 1}
		return c.buf[:n:n], c
	}
	c := a.cur
	if c != nil && c.used+n > len(c.buf) && c.refs == 0 {
		c.used = 0 // full but unreferenced: reuse in place
	}
	if c == nil || c.used+n > len(c.buf) {
		c = chunkPool.Get().(*arenaChunk)
		c.used = 0
		a.cur = c
	}
	dst := c.buf[c.used : c.used+n : c.used+n]
	copy(dst, p)
	c.used += n
	c.refs++
	return dst, c
}

// release drops one frame's reference. A chunk whose last reference is
// gone returns to the pool (the current chunk instead rewinds so its space
// is reused immediately; an oversize dedicated chunk is left to the GC).
func (a *payloadArena) release(c *arenaChunk) {
	if c == nil {
		return
	}
	c.refs--
	if c.refs > 0 {
		return
	}
	if c == a.cur {
		c.used = 0
		return
	}
	if len(c.buf) == arenaChunkBytes {
		chunkPool.Put(c)
	}
}
