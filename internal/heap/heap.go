// Package heap implements the simulated Java-style heap: a flat
// byte-addressable memory with bump allocation and a mark-and-sweep garbage
// collector using sliding compaction.
//
// Sliding compaction preserves the relative order (and, for equal-sized
// co-allocated objects, the relative distances) of live objects — the
// property the paper relies on: "Live objects are packed by sliding
// compaction, which does not change their internal order on the heap. Thus,
// the garbage collector usually preserves constant strides among the live
// objects." (Sec. 4). A non-compacting mode exists for the ablation bench.
//
// Addresses are 32-bit offsets into the heap; 0 is the null reference. The
// first allocation starts at 16 so that no object overlaps address 0.
package heap

import (
	"errors"
	"fmt"

	"strider/internal/classfile"
	"strider/internal/value"
)

// ErrOutOfMemory is returned when an allocation cannot be satisfied even
// after a GC would run.
var ErrOutOfMemory = errors.New("heap: out of memory")

const heapBase = 16 // first object address; 0..15 reserved (null page)

// GCMode selects the collector behaviour.
type GCMode uint8

// GC modes.
const (
	// GCSlidingCompact is the paper's collector: mark, then slide live
	// objects toward the heap base preserving order.
	GCSlidingCompact GCMode = iota
	// GCMarkSweepFreeList marks, then rebuilds a free list without moving
	// objects. Used by the compaction ablation: allocation order — and
	// hence stride patterns — degrade as the heap fragments.
	GCMarkSweepFreeList
)

// Stats accumulates allocator and collector counters.
type Stats struct {
	Allocations   uint64
	BytesAlloc    uint64
	Collections   uint64
	LiveAfterLast uint64
	Moved         uint64
}

// Heap is a simulated heap.
//
// The backing store is materialized lazily: `size` is the configured
// (logical) capacity — the address space Valid accepts and allocation is
// bounded by — while `mem` holds only the physically-touched prefix. It
// starts at initialPhys and doubles on demand. Sliding compaction keeps
// live objects packed at the heap base, so a run touches a short prefix of
// a capacity of tens of megabytes, and a heap parked between runs holds
// only that prefix. Reads of valid-but-untouched addresses (the guarded
// speculative loads of Sec. 3.3 can reach any heap address) return zero,
// exactly as an eagerly-zeroed backing would.
type Heap struct {
	mem      []byte
	size     uint32 // logical capacity; len(mem) <= size
	top      uint32 // bump pointer (next free address in compact mode)
	hwm      uint32 // high-water mark of top: the dirty prefix Reset zeroes
	universe *classfile.Universe
	mode     GCMode
	stats    Stats

	// free list for GCMarkSweepFreeList mode: sorted, coalesced spans.
	free []span

	// marks is a side bitmap, one bit per 8 heap bytes, nil until the
	// first Collect (see clearMarks).
	marks []uint64

	// markStack is the mark-phase worklist, reused across collections.
	markStack []uint32
}

type span struct{ addr, size uint32 }

// initialPhys is the physical backing New allocates up front; ensure
// doubles it as allocation reaches past it.
const initialPhys = 64 << 10

// New creates a heap of the given size bound to a class universe.
func New(size uint32, u *classfile.Universe) *Heap {
	if size < 1024 {
		size = 1024
	}
	size = (size + 7) &^ 7
	return &Heap{
		mem:      make([]byte, min(size, initialPhys)),
		size:     size,
		top:      heapBase,
		hwm:      heapBase,
		universe: u,
	}
}

// ensure grows the physical backing to cover at least `need` bytes.
// Growth doubles (bounded by the logical size) to amortize the copy; the
// fresh tail make() returns is already zero, preserving the all-zero
// invariant for never-allocated memory.
func (h *Heap) ensure(need uint64) {
	if need <= uint64(len(h.mem)) {
		return
	}
	phys := uint64(len(h.mem))
	for phys < need {
		phys *= 2
	}
	mem := make([]byte, min(phys, uint64(h.size)))
	copy(mem, h.mem)
	h.mem = mem
}

// SetGCMode selects the collector (default GCSlidingCompact).
func (h *Heap) SetGCMode(m GCMode) { h.mode = m }

// Size returns the heap capacity in bytes.
func (h *Heap) Size() uint32 { return h.size }

// Top returns the bump pointer (useful in tests).
func (h *Heap) Top() uint32 { return h.top }

// Stats returns a copy of the accumulated statistics.
func (h *Heap) Stats() Stats { return h.stats }

// Universe returns the bound class universe.
func (h *Heap) Universe() *classfile.Universe { return h.universe }

// Reset discards all objects and statistics. Only the dirty prefix (up to
// the allocation high-water mark) is re-zeroed; memory beyond it was never
// written.
func (h *Heap) Reset() {
	b := h.mem[:h.hwm]
	for i := range b {
		b[i] = 0
	}
	h.top = heapBase
	h.hwm = heapBase
	h.free = h.free[:0]
	h.stats = Stats{}
}

// --- raw access -----------------------------------------------------------

// Valid reports whether [addr, addr+size) lies within the heap's logical
// address space (which may extend beyond the materialized backing).
func (h *Heap) Valid(addr, size uint32) bool {
	return addr >= heapBase && uint64(addr)+uint64(size) <= uint64(h.size)
}

// Load4 reads a 32-bit little-endian word. Valid addresses beyond the
// materialized backing read as zero — they have never been written.
func (h *Heap) Load4(addr uint32) uint32 {
	if uint64(addr)+4 > uint64(len(h.mem)) {
		return 0
	}
	b := h.mem[addr : addr+4 : addr+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Store4 writes a 32-bit little-endian word, materializing backing as
// needed (stores normally land inside allocated objects, which allocRaw
// already materialized).
func (h *Heap) Store4(addr uint32, v uint32) {
	if uint64(addr)+4 > uint64(len(h.mem)) {
		h.ensure(uint64(addr) + 4)
	}
	if addr+4 > h.hwm {
		h.hwm = addr + 4
	}
	b := h.mem[addr : addr+4 : addr+4]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// Load8 reads a 64-bit little-endian word.
func (h *Heap) Load8(addr uint32) uint64 {
	return uint64(h.Load4(addr)) | uint64(h.Load4(addr+4))<<32
}

// Store8 writes a 64-bit little-endian word.
func (h *Heap) Store8(addr uint32, v uint64) {
	h.Store4(addr, uint32(v))
	h.Store4(addr+4, uint32(v>>32))
}

// --- object model ---------------------------------------------------------

// ClassOf returns the class of the object at addr.
func (h *Heap) ClassOf(addr uint32) *classfile.Class {
	return h.universe.ByID(h.Load4(addr + classfile.ClassIDOffset))
}

// ArrayLen returns the length of the array object at addr.
func (h *Heap) ArrayLen(addr uint32) uint32 { return h.Load4(addr + classfile.AuxOffset) }

// ObjectSize returns the total heap size of the object at addr.
func (h *Heap) ObjectSize(addr uint32) uint32 {
	c := h.ClassOf(addr)
	if c == nil {
		panic(fmt.Sprintf("heap: no class for object at 0x%x", addr))
	}
	if c.IsArray {
		return c.ArraySize(h.ArrayLen(addr))
	}
	return c.InstanceSize
}

// ElemAddr returns the address of element i of the array at addr.
// It does not bounds-check; callers do.
func (h *Heap) ElemAddr(arr uint32, i uint32) uint32 {
	c := h.ClassOf(arr)
	return arr + classfile.HeaderBytes + i*c.ElemSize
}

// --- allocation -----------------------------------------------------------

// AllocObject allocates a zeroed instance of class c.
func (h *Heap) AllocObject(c *classfile.Class) (uint32, error) {
	if c.IsArray {
		return 0, fmt.Errorf("heap: AllocObject on array class %s", c.Name)
	}
	addr, err := h.allocRaw(c.InstanceSize)
	if err != nil {
		return 0, err
	}
	h.Store4(addr+classfile.ClassIDOffset, c.ID)
	return addr, nil
}

// AllocArray allocates a zeroed array of the given element kind and length.
func (h *Heap) AllocArray(elem value.Kind, length uint32) (uint32, error) {
	c := h.universe.ArrayClass(elem)
	size := c.ArraySize(length)
	addr, err := h.allocRaw(size)
	if err != nil {
		return 0, err
	}
	h.Store4(addr+classfile.ClassIDOffset, c.ID)
	h.Store4(addr+classfile.AuxOffset, length)
	return addr, nil
}

func (h *Heap) allocRaw(size uint32) (uint32, error) {
	if size == 0 || size&7 != 0 {
		return 0, fmt.Errorf("heap: bad allocation size %d", size)
	}
	// Free-list mode: first fit. A span is only split when the remainder
	// can hold a filler header (>= HeaderBytes), so the linear heap walk
	// stays well-formed.
	if h.mode == GCMarkSweepFreeList {
		for i, s := range h.free {
			switch {
			case s.size == size:
				h.free = append(h.free[:i], h.free[i+1:]...)
			case s.size >= size+classfile.HeaderBytes:
				rest := span{s.addr + size, s.size - size}
				h.free[i] = rest
				h.stampFiller(rest.addr, rest.size)
			default:
				continue
			}
			h.zero(s.addr, size)
			h.stats.Allocations++
			h.stats.BytesAlloc += uint64(size)
			return s.addr, nil
		}
	}
	if uint64(h.top)+uint64(size) > uint64(h.size) {
		return 0, ErrOutOfMemory
	}
	h.ensure(uint64(h.top) + uint64(size))
	addr := h.top
	h.top += size
	if h.top > h.hwm {
		h.hwm = h.top
	}
	h.zero(addr, size)
	h.stats.Allocations++
	h.stats.BytesAlloc += uint64(size)
	return addr, nil
}

func (h *Heap) zero(addr, size uint32) {
	b := h.mem[addr : addr+size]
	for i := range b {
		b[i] = 0
	}
}

// --- garbage collection ----------------------------------------------------

// RootSet enumerates the mutator's reference slots. Each callback argument
// points at a Value the collector may read and update in place; slots whose
// kind is not KindRef are ignored.
type RootSet func(visit func(*value.Value))

func (h *Heap) mark(addr uint32) bool {
	w, b := addr/8/64, (addr/8)%64
	old := h.marks[w]
	h.marks[w] = old | 1<<b
	return old&(1<<b) != 0
}

func (h *Heap) marked(addr uint32) bool {
	w, b := addr/8/64, (addr/8)%64
	return h.marks[w]&(1<<b) != 0
}

// clearMarks readies the bitmap for a collection: it covers [0, top),
// allocated to the backing's length on first use or after the backing
// has grown, otherwise reused with only the words in use cleared.
func (h *Heap) clearMarks() {
	n := int(h.top/8+63) / 64
	if n > len(h.marks) {
		h.marks = make([]uint64, (len(h.mem)/8+63)/64)
		return
	}
	clear(h.marks[:n])
}

// Collect runs a full garbage collection with the given roots. It returns
// the number of live bytes after collection.
func (h *Heap) Collect(roots RootSet) uint64 {
	h.stats.Collections++
	h.clearMarks()

	// Mark phase: iterative DFS over reference fields/elements. The
	// worklist buffer is retained on the heap across collections so a
	// steady-state mutator does not allocate to collect.
	stack := h.markStack[:0]
	defer func() { h.markStack = stack[:0] }()
	push := func(ref uint32) {
		if ref == 0 {
			return
		}
		if !h.Valid(ref, classfile.HeaderBytes) {
			panic(fmt.Sprintf("heap: root/edge to invalid address 0x%x", ref))
		}
		if !h.mark(ref) {
			stack = append(stack, ref)
		}
	}
	roots(func(v *value.Value) {
		if v.K == value.KindRef {
			push(v.Ref())
		}
	})
	h.universe.StaticRoots(func(v *value.Value) { push(v.Ref()) })
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := h.ClassOf(obj)
		if c == nil {
			panic(fmt.Sprintf("heap: marked object at 0x%x has no class", obj))
		}
		if c.IsArray {
			if c.Elem == value.KindRef {
				n := h.ArrayLen(obj)
				base := obj + classfile.HeaderBytes
				for i := uint32(0); i < n; i++ {
					push(h.Load4(base + i*4))
				}
			}
			continue
		}
		for _, off := range c.RefOffsets {
			push(h.Load4(obj + off))
		}
	}

	if h.mode == GCMarkSweepFreeList {
		return h.sweepFreeList(roots)
	}
	return h.slideCompact(roots)
}

// slideCompact implements LISP-2 sliding compaction: compute forwarding
// addresses in the fwd header word, update all references, then move.
func (h *Heap) slideCompact(roots RootSet) uint64 {
	// Pass 1: forwarding addresses in allocation order.
	newTop := uint32(heapBase)
	for addr := uint32(heapBase); addr < h.top; {
		size := h.ObjectSize(addr)
		if h.marked(addr) {
			h.Store4(addr+classfile.FwdOffset, newTop)
			newTop += size
		}
		addr += size
	}

	fwd := func(ref uint32) uint32 {
		if ref == 0 {
			return 0
		}
		return h.Load4(ref + classfile.FwdOffset)
	}

	// Pass 2: update roots, statics, and heap references.
	roots(func(v *value.Value) {
		if v.K == value.KindRef && v.B != 0 {
			*v = value.Ref(fwd(v.Ref()))
		}
	})
	h.universe.StaticRoots(func(v *value.Value) {
		if v.B != 0 {
			*v = value.Ref(fwd(v.Ref()))
		}
	})
	for addr := uint32(heapBase); addr < h.top; {
		size := h.ObjectSize(addr)
		if h.marked(addr) {
			c := h.ClassOf(addr)
			if c.IsArray {
				if c.Elem == value.KindRef {
					n := h.ArrayLen(addr)
					base := addr + classfile.HeaderBytes
					for i := uint32(0); i < n; i++ {
						h.Store4(base+i*4, fwd(h.Load4(base+i*4)))
					}
				}
			} else {
				for _, off := range c.RefOffsets {
					h.Store4(addr+off, fwd(h.Load4(addr+off)))
				}
			}
		}
		addr += size
	}

	// Pass 3: slide. Objects move only toward lower addresses, so a
	// forward scan with copy is safe.
	live := uint64(0)
	for addr := uint32(heapBase); addr < h.top; {
		size := h.ObjectSize(addr)
		next := addr + size
		if h.marked(addr) {
			dst := h.Load4(addr + classfile.FwdOffset)
			h.Store4(addr+classfile.FwdOffset, 0)
			if dst != addr {
				copy(h.mem[dst:dst+size], h.mem[addr:addr+size])
				h.stats.Moved++
			}
			live += uint64(size)
		}
		addr = next
	}
	// Zero the reclaimed tail so stale headers cannot confuse later walks.
	h.zero(newTop, h.top-newTop)
	h.top = newTop
	h.stats.LiveAfterLast = live
	return live
}

// sweepFreeList rebuilds the free list without moving objects.
func (h *Heap) sweepFreeList(RootSet) uint64 {
	h.free = h.free[:0]
	live := uint64(0)
	var cur *span
	for addr := uint32(heapBase); addr < h.top; {
		size := h.ObjectSize(addr)
		if h.marked(addr) {
			live += uint64(size)
			cur = nil
		} else {
			if cur != nil && cur.addr+cur.size == addr {
				cur.size += size
			} else {
				h.free = append(h.free, span{addr, size})
				cur = &h.free[len(h.free)-1]
			}
			h.zero(addr, size)
			// Re-stamp a dead span header so ObjectSize keeps walking: use
			// an int[] filler of exactly this size.
			h.stampFiller(cur.addr, cur.size)
		}
		addr += size
	}
	h.stats.LiveAfterLast = live
	return live
}

// stampFiller writes an int-array header covering [addr, addr+size) so the
// linear heap walk remains well-formed over free spans.
func (h *Heap) stampFiller(addr, size uint32) {
	c := h.universe.ArrayClass(value.KindInt)
	h.Store4(addr+classfile.ClassIDOffset, c.ID)
	h.Store4(addr+classfile.AuxOffset, (size-classfile.HeaderBytes)/4)
}

// Walk calls fn for every object currently in the allocated region, in
// address order, with its address and size. Free-list filler spans are
// included (fn can identify them by class).
func (h *Heap) Walk(fn func(addr, size uint32, c *classfile.Class) bool) {
	for addr := uint32(heapBase); addr < h.top; {
		c := h.ClassOf(addr)
		if c == nil {
			panic(fmt.Sprintf("heap: walk hit headerless memory at 0x%x", addr))
		}
		size := h.ObjectSize(addr)
		if !fn(addr, size, c) {
			return
		}
		addr += size
	}
}
