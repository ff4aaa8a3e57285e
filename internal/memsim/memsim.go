// Package memsim simulates the memory hierarchy of the evaluation machines:
// an L1 data cache, a unified L2, and a data TLB, all set-associative with
// LRU replacement, plus the software-prefetch semantics the paper relies on
// (Sec. 3.3 and 4):
//
//   - a hardware prefetch instruction is cancelled when it would miss the
//     DTLB (so it cannot prime TLB entries);
//   - a prefetch fills the machine's target level — L2 on the Pentium 4,
//     L1 (and L2, inclusively) on the Athlon MP;
//   - a guarded load ("TLB priming") behaves like a non-blocking load: it
//     fills the DTLB and both cache levels;
//   - prefetched lines have an arrival time; a demand access that arrives
//     before the line does stalls for the remainder, so prefetching too
//     late helps only partially, and prefetching uselessly still costs
//     issue slots and queue capacity;
//   - the number of in-flight prefetches is bounded; overflow drops.
package memsim

import (
	"fmt"

	"strider/internal/arch"
	"strider/internal/telemetry"
)

// Counters accumulates the events the paper reports (MPIs are computed by
// the harness as misses / retired instructions).
type Counters struct {
	Loads  uint64
	Stores uint64

	L1LoadMisses   uint64
	L2LoadMisses   uint64
	DTLBLoadMisses uint64

	L1StoreMisses   uint64
	L2StoreMisses   uint64
	DTLBStoreMisses uint64

	HWPrefetches      uint64
	PrefetchesIssued  uint64
	PrefetchesGuarded uint64
	PrefetchesDropped uint64 // DTLB-cancelled or queue-full
	PrefetchesUseless uint64 // line already present at or above target level

	LoadStallCycles  uint64
	StoreStallCycles uint64
}

// invalidTag marks an empty way. Every address that reaches a cache is a
// 32-bit simulated address (a hardware prefetch is dropped before it
// reaches the L2 unless it lies on its reference's page), so no real tag
// can equal it.
const invalidTag = ^uint64(0)

// cache keeps its per-way state in parallel flat slices — set s occupies
// ways [s*assoc, (s+1)*assoc) of each — so a set lookup scans adjacent
// tags only, and readyAt is read once the way is known. The set count is
// a power of two (Table 2 machines), so indexing is a mask.
//
// Each set's recency order is an intrusive doubly linked list over its
// ways: head[s] is the most recently used way, tail[s] the least, and
// next/prev link them (head to tail). A lookup hit moves its way to the
// head and a fill overwrites the tail's way and moves it to the head, so
// victim choice costs no scan. This is exactly the LRU order of "evict
// the way with the oldest use, empty ways first": flush threads each set
// from its last way (head) down to way 0 (tail), so empty ways sit
// behind every used way, lowest index nearest the tail, and are taken in
// index order. Which way holds a line is never observable; only which
// lines are present, and their arrival times, are.
type cache struct {
	tags    []uint64 // invalidTag when the way is empty
	readyAt []uint64 // arrival cycle of the way's line
	next    []uint32 // flat way index one step towards the tail
	prev    []uint32 // flat way index one step towards the head
	head    []uint32 // per set: flat index of the MRU way
	tail    []uint32 // per set: flat index of the LRU way

	assoc     uint64
	lineShift uint
	setMask   uint64

	// memoTag/memoReady short-circuit a lookup of the same line as the
	// most recent lookup hit or fill, skipping the set scan and the move
	// to the head. Skipping the move is unobservable: a lookup hit and a
	// fill both leave their line at the head of its set, and only another
	// lookup hit or fill — which replaces the memo — can displace it, so
	// while the memo is live its line is already the head. memoReady
	// cannot go stale for the same reason: a line's arrival time is
	// written only by a fill. probe neither sets nor consults the memo; it
	// does not touch recency, so a memo set by it could stand in for a
	// lookup's move to the head that never happened. memoTag is
	// invalidTag after a flush, so no address matches it.
	memoTag   uint64
	memoReady uint64
}

func newCache(p arch.CacheParams) *cache {
	sets, assoc := uint64(p.Sets()), uint64(p.Assoc)
	n := sets * assoc
	words := make([]uint64, 2*n)
	links := make([]uint32, 2*n+2*sets)
	c := &cache{
		tags:    words[:n:n],
		readyAt: words[n:],
		next:    links[:n:n],
		prev:    links[n : 2*n : 2*n],
		head:    links[2*n : 2*n+sets : 2*n+sets],
		tail:    links[2*n+sets:],
		assoc:   assoc,
		setMask: sets - 1,
	}
	for s := uint32(1); s < p.LineBytes; s <<= 1 {
		c.lineShift++
	}
	c.flush()
	return c
}

// lookup reports addr's line's arrival time if it is present, making it
// the most recently used line of its set.
func (c *cache) lookup(addr uint64) (uint64, bool) {
	tag := addr >> c.lineShift
	if tag == c.memoTag {
		return c.memoReady, true
	}
	set := tag & c.setMask
	base := set * c.assoc
	for i, t := range c.tags[base : base+c.assoc] {
		if t == tag {
			w := uint32(base) + uint32(i)
			c.toHead(uint32(set), w)
			c.memoTag, c.memoReady = tag, c.readyAt[w]
			return c.memoReady, true
		}
	}
	return 0, false
}

// probe is lookup without the recency update (used by prefetch presence
// checks).
func (c *cache) probe(addr uint64) (uint64, bool) {
	tag := addr >> c.lineShift
	base := (tag & c.setMask) * c.assoc
	for i, t := range c.tags[base : base+c.assoc] {
		if t == tag {
			return c.readyAt[base+uint64(i)], true
		}
	}
	return 0, false
}

// fill installs addr's line with the given arrival time, evicting the
// set's least recently used line. Callers fill only absent lines.
func (c *cache) fill(addr uint64, readyAt uint64) {
	tag := addr >> c.lineShift
	set := uint32(tag & c.setMask)
	w := c.tail[set]
	c.tags[w], c.readyAt[w] = tag, readyAt
	c.toHead(set, w)
	// The fill may have evicted the memo line; pointing the memo at the
	// new line keeps it truthful without a separate check.
	c.memoTag, c.memoReady = tag, readyAt
}

// toHead moves way w of set to the head of the set's recency list.
func (c *cache) toHead(set, w uint32) {
	h := c.head[set]
	if h == w {
		return
	}
	p, n := c.prev[w], c.next[w]
	c.next[p] = n
	if c.tail[set] == w {
		c.tail[set] = p
	} else {
		c.prev[n] = p
	}
	c.next[w], c.prev[h] = h, w
	c.head[set] = w
}

// flush empties every way and threads each set's recency list from its
// last way (head) down to way 0 (tail). The unused links (the head's
// prev, the tail's next) point at the way itself, so a flushed cache is
// bit-identical to a new one.
func (c *cache) flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.readyAt)
	a := uint32(c.assoc)
	for s := range c.head {
		base := uint32(s) * a
		next, prev := c.next[base:base+a], c.prev[base:base+a]
		for i := range next {
			next[i], prev[i] = base+uint32(i)-1, base+uint32(i)+1
		}
		next[0], prev[a-1] = base, base+a-1
		c.head[s], c.tail[s] = base+a-1, base
	}
	c.memoTag, c.memoReady = invalidTag, 0
}

// Memory is the simulated memory hierarchy of one machine.
type Memory struct {
	Arch *arch.Machine

	l1, l2 *cache
	tlb    *cache // reuses the cache structure with page-size lines

	C Counters

	// inflight holds arrival times of outstanding prefetches (a small
	// ring; entries with readyAt <= now are reclaimed lazily).
	inflight []uint64

	// hw is the machine's hardware prefetch unit (Arch.HWPrefetcher; the
	// per-page stream detector by default). It trains on the demand-miss
	// and software-prefetch reference stream and fills the L2 through the
	// HWPort methods below.
	hw HWPrefetcher
	// stream is inline storage for the default model: New points hw at it
	// instead of heap-allocating, so constructing a default Memory costs
	// no more allocations than before the prefetcher became pluggable
	// (the bench suite gates allocs/op at zero growth).
	stream streamPrefetcher
	// pageShift is log2 of Arch.DTLB.PageSize — the page geometry every
	// hardware prefetcher must respect.
	pageShift uint
	// l1Hit caches Arch.L1HitCycles one pointer hop closer for the inline
	// hit lane (fastlane.go), which budgets every load it makes.
	l1Hit uint64

	// selfCheck enables fill-time structural invariant checking (see
	// EnableSelfCheck). Off by default: zero cost, identical behaviour.
	selfCheck  bool
	violations []string
}

// New creates the memory system for a machine. The machine's HWPrefetcher
// field selects the hardware-prefetch model ("" = the default stream
// detector); an unknown model name panics — validate with ValidHWModel at
// the flag/spec boundary.
func New(m *arch.Machine) *Memory {
	tlbParams := arch.CacheParams{
		SizeBytes: m.DTLB.Entries * m.DTLB.PageSize,
		LineBytes: m.DTLB.PageSize,
		Assoc:     m.DTLB.Assoc,
	}
	mem := &Memory{
		Arch:     m,
		l1:       newCache(m.L1D),
		l2:       newCache(m.L2U),
		tlb:      newCache(tlbParams),
		inflight: make([]uint64, 0, m.PrefetchQueue),
		l1Hit:    m.L1HitCycles,
	}
	for s := uint32(1); s < m.DTLB.PageSize; s <<= 1 {
		mem.pageShift++
	}
	if m.HWPrefetcher == "" || m.HWPrefetcher == DefaultHWModel {
		mem.stream.hwCore = newHWCore(mem)
		mem.stream.Reset()
		mem.hw = &mem.stream
	} else {
		mem.hw = newHWPrefetcher(m.HWPrefetcher, mem)
	}
	return mem
}

// Reset clears all cache, TLB, counter, and hardware-prefetcher state; a
// reset Memory is bit-identical to a freshly constructed one.
func (mem *Memory) Reset() {
	mem.l1.flush()
	mem.l2.flush()
	mem.tlb.flush()
	mem.C = Counters{}
	mem.inflight = mem.inflight[:0]
	mem.hw.Reset()
}

// HWModel returns the name of the active hardware-prefetcher model.
func (mem *Memory) HWModel() string { return mem.hw.Name() }

// HWStats returns the hardware prefetcher's statistics for the current
// counter window.
func (mem *Memory) HWStats() HWStats { return mem.hw.Stats() }

// ProbeL2 implements HWPort.
func (mem *Memory) ProbeL2(addr uint64) bool {
	_, ok := mem.l2.probe(addr)
	return ok
}

// FillL2 implements HWPort: install a hardware-prefetched line with full
// memory latency and count it.
func (mem *Memory) FillL2(addr uint64, now uint64) {
	mem.C.HWPrefetches++
	mem.l2.fill(addr, now+mem.Arch.L2HitCycles+mem.Arch.MemCycles)
}

// LineShift implements HWPort (the L2 line granule the units train on).
func (mem *Memory) LineShift() uint { return mem.l2.lineShift }

// PageShift implements HWPort.
func (mem *Memory) PageShift() uint { return mem.pageShift }

// EnableSelfCheck turns on fill-time invariant checking: every L1 fill
// verifies that the line is simultaneously present in the L2 (the
// inclusion property of the model — on the Athlon MP the paper relies on
// it: prefetches fill "L1 (and L2, inclusively)"). Violations are
// recorded, never fatal; simulation results are unaffected (the check
// uses a probe, which does not touch LRU state).
func (mem *Memory) EnableSelfCheck() { mem.selfCheck = true }

// Violations returns the recorded self-check violations.
func (mem *Memory) Violations() []string { return mem.violations }

// fillL1 installs a line in the L1, checking fill-time L2 inclusion when
// self-checking is enabled.
func (mem *Memory) fillL1(addr uint64, readyAt uint64) {
	mem.l1.fill(addr, readyAt)
	if mem.selfCheck && !mem.ProbeL2(addr) {
		mem.violations = append(mem.violations,
			fmt.Sprintf("%s: L1 fill of 0x%x without an L2 copy (inclusion broken at fill time)",
				mem.Arch.Name, addr))
	}
}

// CheckInvariants validates the counter algebra of one run and returns
// any violations: miss counters must be conserved down the hierarchy, the
// prefetch outcome counters must partition the issue counter, stall
// totals must respect the machine's latency bounds, and the in-flight
// prefetch window must respect the queue bound. It reads only counters
// and configuration, so it can run inside the differ after every cell
// without perturbing the simulation.
func (mem *Memory) CheckInvariants() []string {
	var v []string
	c, a := mem.C, mem.Arch
	bad := func(format string, args ...interface{}) {
		v = append(v, fmt.Sprintf("%s: ", a.Name)+fmt.Sprintf(format, args...))
	}
	if c.L1LoadMisses > c.Loads {
		bad("L1 load misses %d > loads %d", c.L1LoadMisses, c.Loads)
	}
	if c.L2LoadMisses > c.L1LoadMisses {
		bad("L2 load misses %d > L1 load misses %d", c.L2LoadMisses, c.L1LoadMisses)
	}
	if c.DTLBLoadMisses > c.Loads {
		bad("DTLB load misses %d > loads %d", c.DTLBLoadMisses, c.Loads)
	}
	if c.L1StoreMisses > c.Stores {
		bad("L1 store misses %d > stores %d", c.L1StoreMisses, c.Stores)
	}
	if c.L2StoreMisses > c.L1StoreMisses {
		bad("L2 store misses %d > L1 store misses %d", c.L2StoreMisses, c.L1StoreMisses)
	}
	if c.DTLBStoreMisses > c.Stores {
		bad("DTLB store misses %d > stores %d", c.DTLBStoreMisses, c.Stores)
	}
	if c.PrefetchesGuarded > c.PrefetchesIssued {
		bad("guarded prefetches %d > issued %d", c.PrefetchesGuarded, c.PrefetchesIssued)
	}
	if c.PrefetchesDropped+c.PrefetchesUseless > c.PrefetchesIssued {
		bad("dropped %d + useless %d > issued %d",
			c.PrefetchesDropped, c.PrefetchesUseless, c.PrefetchesIssued)
	}
	// Stall bounds. The worst per-load stall is a cold full miss plus the
	// discounted wait for a chained in-flight line; 2*(L2+Mem) safely
	// dominates every path through Load. Stores are charged at most the
	// same before the StoreFactor discount.
	maxLoad := a.L1HitCycles + a.DTLBMissCycles + 2*(a.L2HitCycles+a.MemCycles)
	if c.LoadStallCycles > c.Loads*maxLoad {
		bad("load stall cycles %d exceed %d loads * %d bound", c.LoadStallCycles, c.Loads, maxLoad)
	}
	if c.LoadStallCycles < c.Loads*a.L1HitCycles {
		bad("load stall cycles %d below %d loads * L1 hit %d", c.LoadStallCycles, c.Loads, a.L1HitCycles)
	}
	maxStore := a.DTLBMissCycles + 2*(a.L2HitCycles+a.MemCycles)
	if c.StoreStallCycles > c.Stores*maxStore {
		bad("store stall cycles %d exceed %d stores * %d bound", c.StoreStallCycles, c.Stores, maxStore)
	}
	if len(mem.inflight) > a.PrefetchQueue {
		bad("in-flight prefetches %d exceed queue %d", len(mem.inflight), a.PrefetchQueue)
	}
	// Per-prefetcher statistics must agree with the run counters and with
	// each other: every hardware fill is an Issued, a prediction can only
	// hit on a train, and no model issues more than maxHWDegree prefetches
	// (issued or suppressed) per train.
	hw := mem.hw.Stats()
	if c.HWPrefetches != hw.Issued {
		bad("HWPrefetches %d != %s prefetcher issued %d", c.HWPrefetches, mem.hw.Name(), hw.Issued)
	}
	if hw.Hits > hw.Trains {
		bad("hw hits %d > trains %d", hw.Hits, hw.Trains)
	}
	if hw.Allocs > hw.Trains {
		bad("hw allocs %d > trains %d", hw.Allocs, hw.Trains)
	}
	if hw.Issued+hw.Suppressed > maxHWDegree*hw.Trains {
		bad("hw issued %d + suppressed %d > %d * trains %d",
			hw.Issued, hw.Suppressed, maxHWDegree, hw.Trains)
	}
	return v
}

func (mem *Memory) tlbAccess(addr uint64, fill bool) (miss bool) {
	if _, ok := mem.tlb.lookup(addr); ok {
		return false
	}
	if fill {
		mem.tlb.fill(addr, 0)
	}
	return true
}

// overlapDiv discounts the visible wait for a line that is present but
// still in flight: the out-of-order core overlaps an *anticipated* miss
// (one with a prefetch or an earlier demand fill already outstanding) far
// better than a cold stall, since independent work keeps issuing while the
// line arrives. Cold misses are charged in full; in-flight remainders are
// charged at 1/overlapDiv.
const overlapDiv = 4

// extraWait returns the visible remaining wait for a present line that
// arrives at readyAt.
func extraWait(readyAt, now uint64) uint64 {
	if readyAt > now {
		return (readyAt - now) / overlapDiv
	}
	return 0
}

// Load simulates a demand load with no load-site identity (pc 0); see
// LoadAt. It exists for callers that have no static load instruction to
// name — memsim's own tests and synthetic sweeps. pc 0 is not neutral: a
// miss still trains the pc-blind hardware models (nextline, stream) and
// still counts in HWStats.Trains under every model, but the pc-indexed
// models (ipstride, tracker, multistride) cannot index the reference and
// learn nothing from it. Engine-driven loads must go through LoadAt with
// a real site pc, or those models silently under-train.
func (mem *Memory) Load(addr uint32, size uint32, now uint64) uint64 {
	return mem.LoadAt(addr, size, now, 0)
}

// LoadAt simulates a demand load of `size` bytes at addr issued at cycle
// `now` by the load site `pc` and returns the stall cycles. pc identifies
// the static load instruction (pc-indexed hardware prefetchers key their
// tables on it; 0 means "no stable site"). Accesses are assumed not to
// cross line boundaries (the VM's objects are 4/8-byte aligned and lines
// are >= 64 bytes).
func (mem *Memory) LoadAt(addr uint32, size uint32, now uint64, pc uint64) uint64 {
	mem.C.Loads++
	a := mem.Arch
	stall := a.L1HitCycles
	if mem.tlbAccess(uint64(addr), true) {
		mem.C.DTLBLoadMisses++
		stall += a.DTLBMissCycles
	}
	if ready, ok := mem.l1.lookup(uint64(addr)); ok {
		stall += extraWait(ready, now)
		mem.C.LoadStallCycles += stall
		return stall
	}
	mem.C.L1LoadMisses++
	mem.hw.Train(uint64(addr), pc, now)
	if ready, ok := mem.l2.lookup(uint64(addr)); ok {
		stall += a.L2HitCycles + extraWait(ready, now)
		mem.fillL1(uint64(addr), now+stall)
		mem.C.LoadStallCycles += stall
		return stall
	}
	mem.C.L2LoadMisses++
	stall += a.L2HitCycles + a.MemCycles
	mem.l2.fill(uint64(addr), now+stall)
	mem.fillL1(uint64(addr), now+stall)
	mem.C.LoadStallCycles += stall
	return stall
}

// Store simulates a demand store. Write-allocate, write-back; store misses
// stall 1/StoreFactor of the corresponding load penalty (store buffers hide
// most of it).
func (mem *Memory) Store(addr uint32, size uint32, now uint64) uint64 {
	mem.C.Stores++
	a := mem.Arch
	var stall uint64
	if mem.tlbAccess(uint64(addr), true) {
		mem.C.DTLBStoreMisses++
		stall += a.DTLBMissCycles
	}
	if ready, ok := mem.l1.lookup(uint64(addr)); ok {
		stall += extraWait(ready, now)
		stall /= a.StoreFactor
		mem.C.StoreStallCycles += stall
		return stall
	}
	mem.C.L1StoreMisses++
	if ready, ok := mem.l2.lookup(uint64(addr)); ok {
		stall += a.L2HitCycles + extraWait(ready, now)
		mem.fillL1(uint64(addr), now+stall)
		stall /= a.StoreFactor
		mem.C.StoreStallCycles += stall
		return stall
	}
	mem.C.L2StoreMisses++
	stall += a.L2HitCycles + a.MemCycles
	mem.l2.fill(uint64(addr), now+stall)
	mem.fillL1(uint64(addr), now+stall)
	stall /= a.StoreFactor
	mem.C.StoreStallCycles += stall
	return stall
}

// queueFull reports whether the prefetch queue is saturated at `now`,
// reclaiming completed entries.
func (mem *Memory) queueFull(now uint64) bool {
	live := mem.inflight[:0]
	for _, t := range mem.inflight {
		if t > now {
			live = append(live, t)
		}
	}
	mem.inflight = live
	return len(mem.inflight) >= mem.Arch.PrefetchQueue
}

// Prefetch simulates a software prefetch issued at cycle `now` and
// reports what became of it (the telemetry layer attributes outcomes to
// the emitting prefetch site through the return value).
//
// guarded selects the guarded-load mapping: it fills the DTLB (TLB priming,
// paper Sec. 3.3) and installs the line into both cache levels. A plain
// hardware prefetch is cancelled on a DTLB miss and fills only the
// machine's target level. No stall is charged — prefetches are
// asynchronous; their cost is modelled by the instruction issue cycles the
// engine charges plus queue occupancy.
func (mem *Memory) Prefetch(addr uint32, guarded bool, now uint64) telemetry.PrefetchOutcome {
	a := mem.Arch
	mem.C.PrefetchesIssued++
	if guarded {
		mem.C.PrefetchesGuarded++
	}
	if !guarded && mem.tlbAccess(uint64(addr), false) {
		// Hardware prefetch cancelled on DTLB miss.
		mem.C.PrefetchesDropped++
		return telemetry.PrefetchDroppedTLB
	}
	if mem.queueFull(now) {
		mem.C.PrefetchesDropped++
		return telemetry.PrefetchDroppedQueue
	}
	if guarded {
		mem.tlbAccess(uint64(addr), true)
	}
	// The hardware prefetcher trains on the L2 reference stream, which
	// includes software prefetch requests — the two mechanisms cooperate
	// (software prefetches of a dense object stream keep the hardware
	// stream alive, covering the lines the compile-time line-dedup filter
	// skipped). Software prefetches carry no load-site pc.
	mem.hw.Train(uint64(addr), 0, now)
	target := a.PrefetchTarget
	if guarded {
		target = arch.L1 // a real load fills L1
	}
	// Determine where the data currently lives to compute arrival time.
	_, inL1 := mem.l1.probe(uint64(addr))
	l2Ready, inL2 := mem.l2.probe(uint64(addr))
	switch {
	case target == arch.L1 && inL1, target == arch.L2 && (inL2 || inL1):
		mem.C.PrefetchesUseless++
		return telemetry.PrefetchUseless
	}
	var lat uint64
	if inL2 {
		lat = a.L2HitCycles
		if l2Ready > now {
			// The L2 copy is itself still in flight; data cannot reach the
			// L1 before it arrives.
			lat += l2Ready - now
		}
	} else {
		lat = a.L2HitCycles + a.MemCycles
	}
	ready := now + lat
	if !inL2 {
		mem.l2.fill(uint64(addr), ready)
	}
	if target == arch.L1 {
		mem.fillL1(uint64(addr), ready)
	}
	mem.inflight = append(mem.inflight, ready)
	return telemetry.PrefetchFetched
}

// LineSize returns the L1 line size (the profitability analysis granule).
func (mem *Memory) LineSize() uint32 { return mem.Arch.L1D.LineBytes }
