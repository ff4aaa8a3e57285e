// The inline-probe hit lane. LoadAt/Store are the per-access entry points
// of every simulation, and ~41% of engine dispatches reach them through
// the interp.MemModel interface (EXPERIMENTS.md, "ceiling math"). The two
// probes below split off the overwhelmingly common case — another access
// to the line and page the hierarchy touched last, already arrived — into
// call-free code small enough for the Go inliner (the budget is ~80
// nodes; one probe costs ~55, and a single nested call would add ~57), so
// a type-specialized engine pays a few loads and compares instead of an
// interface dispatch plus the full access path. Accesses the probe bails
// on — a different line (even one that hits the L1 after a set scan), a
// line still in flight, a TLB memo miss — take the full LoadAt/Store,
// devirtualized to a direct call by the same type specialization.
//
// # Equivalence argument
//
// A probe either completes the access or bails with ok=false, and it is
// exact in both outcomes because it commits nothing until the access is
// decided:
//
//   - The presence checks are the caches' memo comparisons, and memo hits
//     are precisely the lookups that commit no state (the memo line is
//     already the head of its set's recency list — see the memo argument
//     in memsim.go). A completed probe therefore performs the identical
//     (empty) LRU transition the full path would have performed. An empty
//     memo holds invalidTag, which no address matches, so the probes need
//     no separate emptiness check.
//   - A bail touches neither counters nor LRU state, so the caller's
//     fallback LoadAt/Store runs against the exact state a direct call
//     would have seen.
//
// On the completed path the counter algebra is LoadAt/Store's verbatim:
// an arrived L1 hit behind a TLB hit charges exactly L1HitCycles on a
// load (extraWait is zero once readyAt <= now) and exactly zero on a
// store (the L1-hit store stall is extraWait/StoreFactor = 0), so
// CheckInvariants sees identical numbers whichever lane ran.
//
// # Hardware-prefetcher contract audit
//
// The hit lane never hides a reference from any HWPrefetcher model:
// Memory trains the unit only on demand L1 *misses* (LoadAt's miss path)
// and on software prefetches (Prefetch) — L1 hits are architecturally
// invisible to every model behind the interface, and stores never train
// at all. ipstride, tracker, and multistride key on the load-site pc, but
// they too observe only the miss stream, which the probes by construction
// never intercept. A model that had to observe L1 hits could not be
// expressed through HWPrefetcher.Train; adding one would mean giving the
// hit lane a way to step aside for it, which no model needs today.
package memsim

// LoadHit is the demand-load hit lane: a TLB-memo hit plus an L1-memo hit
// whose line has arrived completes the load for exactly L1HitCycles;
// anything else returns ok=false with no state touched, and the caller
// must issue the full LoadAt with the same arguments. pc is not a
// parameter because completed hits never train the hardware prefetcher
// (see the package comment's audit); the fallback call carries it.
func (mem *Memory) LoadHit(addr uint32, now uint64) (uint64, bool) {
	t, c := mem.tlb, mem.l1
	if t.memoTag != uint64(addr)>>t.lineShift ||
		c.memoTag != uint64(addr)>>c.lineShift || c.memoReady > now {
		return 0, false
	}
	mem.C.Loads++
	mem.C.LoadStallCycles += mem.l1Hit
	return mem.l1Hit, true
}

// StoreHit is the demand-store hit lane; same structure and bail
// conditions as LoadHit. A completed store behind a TLB hit and an
// arrived L1 line stalls zero cycles (extraWait/StoreFactor of nothing),
// so only Stores advances.
func (mem *Memory) StoreHit(addr uint32, now uint64) (uint64, bool) {
	t, c := mem.tlb, mem.l1
	if t.memoTag != uint64(addr)>>t.lineShift ||
		c.memoTag != uint64(addr)>>c.lineShift || c.memoReady > now {
		return 0, false
	}
	mem.C.Stores++
	return 0, true
}
