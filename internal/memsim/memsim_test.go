package memsim

import (
	"testing"
	"testing/quick"

	"strider/internal/arch"
)

func freshP4() *Memory { return New(arch.Pentium4()) }
func freshAt() *Memory { return New(arch.AthlonMP()) }

func TestColdMissThenHit(t *testing.T) {
	m := freshP4()
	a := m.Arch
	cold := m.Load(0x10000, 4, 0)
	wantCold := a.L1HitCycles + a.DTLBMissCycles + a.L2HitCycles + a.MemCycles
	if cold != wantCold {
		t.Errorf("cold miss stall = %d, want %d", cold, wantCold)
	}
	if m.C.L1LoadMisses != 1 || m.C.L2LoadMisses != 1 || m.C.DTLBLoadMisses != 1 {
		t.Errorf("miss counters: %+v", m.C)
	}
	// Second access: everything hits (readyAt passed).
	hit := m.Load(0x10000, 4, 1_000_000)
	if hit != a.L1HitCycles {
		t.Errorf("warm hit stall = %d, want %d", hit, a.L1HitCycles)
	}
	if m.C.L1LoadMisses != 1 {
		t.Error("hit counted as miss")
	}
}

func TestSameLineSharing(t *testing.T) {
	m := freshP4()
	m.Load(0x20000, 4, 0)
	// Same 64-byte L1 line -> L1 hit (after arrival).
	stall := m.Load(0x20000+60, 4, 1_000_000)
	if stall != m.Arch.L1HitCycles {
		t.Errorf("same-line access stalled %d", stall)
	}
}

func TestL2HitPath(t *testing.T) {
	m := freshP4()
	a := m.Arch
	// Fill a line, then evict it from L1 (4-way, 32 sets, 64B lines:
	// same set repeats every 2048 bytes) while keeping it in L2.
	m.Load(0x40000, 4, 0)
	for i := uint32(1); i <= 8; i++ {
		m.Load(0x40000+i*2048, 4, 1_000_000)
	}
	l2m := m.C.L2LoadMisses
	stall := m.Load(0x40000, 4, 2_000_000)
	if m.C.L2LoadMisses != l2m {
		t.Fatal("expected an L2 hit, counted an L2 miss")
	}
	if stall != a.L1HitCycles+a.L2HitCycles {
		t.Errorf("L2 hit stall = %d", stall)
	}
}

func TestDTLBCapacity(t *testing.T) {
	m := freshP4() // 64 entries
	// Touch 65 distinct pages twice; the second round must still miss on
	// at least one (capacity), whereas 10 pages fit.
	for i := uint32(0); i < 65; i++ {
		m.Load(i*4096, 4, 0)
	}
	base := m.C.DTLBLoadMisses
	for i := uint32(0); i < 65; i++ {
		m.Load(i*4096, 4, 1_000_000_0)
	}
	if m.C.DTLBLoadMisses == base {
		t.Error("65 pages must not fit a 64-entry DTLB")
	}

	m2 := freshP4()
	for round := 0; round < 2; round++ {
		for i := uint32(0); i < 10; i++ {
			m2.Load(i*4096, 4, 1_000_000)
		}
	}
	if m2.C.DTLBLoadMisses != 10 {
		t.Errorf("10 pages should miss exactly once each, got %d", m2.C.DTLBLoadMisses)
	}
}

func TestPrefetchCancelledOnDTLBMiss(t *testing.T) {
	m := freshP4()
	m.Prefetch(0x50000, false, 0)
	if m.C.PrefetchesDropped != 1 {
		t.Fatal("hardware prefetch must be cancelled on a DTLB miss (Sec. 3.3)")
	}
	// The line must not have been installed.
	stall := m.Load(0x50000, 4, 1_000_000)
	if stall < m.Arch.MemCycles {
		t.Error("cancelled prefetch must not install the line")
	}
}

func TestGuardedPrefetchPrimesTLBAndL1(t *testing.T) {
	m := freshP4()
	a := m.Arch
	m.Prefetch(0x60000, true, 0)
	if m.C.PrefetchesDropped != 0 {
		t.Fatal("guarded load must not be cancelled by a DTLB miss")
	}
	if m.C.PrefetchesGuarded != 1 {
		t.Error("guarded counter")
	}
	// Later access: TLB primed, line in L1 (guarded loads fill L1).
	stall := m.Load(0x60000, 4, 1_000_000)
	if stall != a.L1HitCycles {
		t.Errorf("after guarded prefetch, stall = %d, want %d", stall, a.L1HitCycles)
	}
	if m.C.DTLBLoadMisses != 0 {
		t.Error("TLB priming failed")
	}
}

func TestPlainPrefetchTargetsL2OnP4(t *testing.T) {
	m := freshP4()
	a := m.Arch
	m.Load(0x71000, 4, 0) // prime the TLB page
	// 0x71080 is a different 128-byte L2 line than 0x71000.
	m.Prefetch(0x71080, false, 100)
	stall := m.Load(0x71080, 4, 1_000_000)
	if stall != a.L1HitCycles+a.L2HitCycles {
		t.Errorf("P4 prefetch must fill L2 only: stall = %d", stall)
	}
}

func TestPlainPrefetchTargetsL1OnAthlon(t *testing.T) {
	m := freshAt()
	a := m.Arch
	m.Load(0x71000, 4, 0)
	m.Prefetch(0x71040, false, 100)
	stall := m.Load(0x71040, 4, 1_000_000)
	if stall != a.L1HitCycles {
		t.Errorf("Athlon prefetch must fill L1: stall = %d", stall)
	}
}

func TestLatePrefetchPartialBenefit(t *testing.T) {
	m := freshAt()
	m.Load(0x80000, 4, 0) // prime TLB
	m.Prefetch(0x81000>>0, false, 0)
	_ = m
	m2 := freshAt()
	m2.Load(0x90000, 4, 0)
	m2.Prefetch(0x90040, false, 1000)
	// Demand just 10 cycles later: the line is in flight; the visible
	// stall must be less than a cold miss but more than a hit.
	stall := m2.Load(0x90040, 4, 1010)
	cold := m2.Arch.L1HitCycles + m2.Arch.L2HitCycles + m2.Arch.MemCycles
	if stall >= cold {
		t.Errorf("late prefetch gave no benefit: %d >= %d", stall, cold)
	}
	if stall <= m2.Arch.L1HitCycles {
		t.Errorf("immediately-used prefetch cannot be free: %d", stall)
	}
}

func TestPrefetchQueueOverflow(t *testing.T) {
	m := freshAt()
	// Prime pages so prefetches are not TLB-cancelled.
	for i := uint32(0); i < 4; i++ {
		m.Load(0xA0000+i*4096, 4, 0)
	}
	issued := 0
	for i := uint32(0); i < 32; i++ {
		m.Prefetch(0xA0000+512+i*64, false, 100)
		issued++
	}
	if m.C.PrefetchesDropped == 0 {
		t.Error("32 simultaneous prefetches must overflow the queue")
	}
	if int(m.C.PrefetchesIssued) != issued {
		t.Error("issue counter wrong")
	}
}

func TestUselessPrefetchCounted(t *testing.T) {
	m := freshAt()
	m.Load(0xB0000, 4, 0)
	m.Prefetch(0xB0000, false, 1_000_000)
	if m.C.PrefetchesUseless != 1 {
		t.Error("prefetch of a resident line must count as useless")
	}
}

func TestStoreCheaperThanLoad(t *testing.T) {
	m := freshP4()
	st := m.Store(0xC0000, 4, 0)
	m2 := freshP4()
	ld := m2.Load(0xC0000, 4, 0)
	if st >= ld {
		t.Errorf("store stall %d must be below load stall %d", st, ld)
	}
	if m.C.L1StoreMisses != 1 || m.C.L2StoreMisses != 1 {
		t.Error("store miss counters")
	}
}

func TestHWPrefetcherCoversSequentialStream(t *testing.T) {
	m := freshAt()
	// Stream 64 consecutive lines within one page; after training, later
	// lines should hit L2 thanks to the hardware prefetcher.
	now := uint64(0)
	for i := uint32(0); i < 64; i++ {
		now += 500
		m.Load(0xD0000+i*64, 4, now)
	}
	if m.C.HWPrefetches == 0 {
		t.Fatal("hardware prefetcher never trained on a sequential stream")
	}
	if m.C.L2LoadMisses >= 60 {
		t.Errorf("L2 misses = %d; hardware prefetching should cover most of the stream", m.C.L2LoadMisses)
	}
}

func TestHWPrefetcherStopsAtPageBoundary(t *testing.T) {
	m := freshAt()
	now := uint64(0)
	// Train a stream running into the end of a page (all accesses within
	// the page; the last trained prefetch target would be the next page).
	for i := uint32(0); i < 6; i++ {
		now += 500
		m.Load(0xE0000+0xE80+i*64, 4, now)
	}
	hw := m.C.HWPrefetches
	if hw == 0 {
		t.Fatal("stream should have trained")
	}
	// The next line starts a new page; the prefetcher must not have
	// crossed into it.
	stall := m.Load(0xE1000, 4, now+100_000)
	if stall < m.Arch.MemCycles {
		t.Errorf("line beyond page boundary was prefetched (stall %d, hw %d)", stall, hw)
	}
}

func TestHWPrefetcherIgnoresPointerChasing(t *testing.T) {
	m := freshAt()
	// Random-looking deltas within a page: no training.
	addrs := []uint32{0xF0000, 0xF0340, 0xF0080, 0xF0740, 0xF0180, 0xF0500}
	now := uint64(0)
	for _, a := range addrs {
		now += 500
		m.Load(a, 4, now)
	}
	if m.C.HWPrefetches != 0 {
		t.Errorf("hardware prefetcher trained on irregular deltas: %d", m.C.HWPrefetches)
	}
}

func TestReset(t *testing.T) {
	m := freshP4()
	m.Load(0x10000, 4, 0)
	// Cache contents kept across accesses: the reload hits.
	if stall := m.Load(0x10000, 4, 1_000_000); stall != m.Arch.L1HitCycles {
		t.Fatal("the reload before Reset missed")
	}
	m.Reset()
	if m.C.Loads != 0 {
		t.Error("Reset must clear the counters")
	}
	if stall := m.Load(0x10000, 4, 2_000_000); stall <= m.Arch.L1HitCycles {
		t.Error("Reset must flush caches")
	}
}

func TestLineSize(t *testing.T) {
	if freshP4().LineSize() != 64 {
		t.Error("LineSize must report the L1 line")
	}
}

// Property: miss counters never exceed access counters, and a repeated
// access sequence (far enough apart in time) has at most one cold miss per
// distinct line within capacity.
func TestQuickCounterSanity(t *testing.T) {
	f := func(raw []uint16) bool {
		m := freshAt()
		now := uint64(0)
		for _, r := range raw {
			now += 1000
			addr := 0x10000 + uint32(r)*8
			m.Load(addr, 4, now)
		}
		c := m.C
		return c.L1LoadMisses <= c.Loads &&
			c.L2LoadMisses <= c.L1LoadMisses &&
			c.DTLBLoadMisses <= c.Loads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: LRU keeps a working set no larger than one set's associativity
// permanently resident.
func TestLRUWithinSet(t *testing.T) {
	m := freshAt() // L1: 64K, 2-way, 64B lines -> set stride 32K
	// Two lines mapping to the same set fit (2 ways); touching them
	// repeatedly must produce exactly 2 misses.
	for i := 0; i < 10; i++ {
		m.Load(0x10000, 4, uint64(i)*1000+1000)
		m.Load(0x10000+32768, 4, uint64(i)*1000+1500)
	}
	if m.C.L1LoadMisses != 2 {
		t.Errorf("2-way set with 2 lines: misses = %d, want 2", m.C.L1LoadMisses)
	}
	// A third same-set line causes continual eviction.
	m2 := freshAt()
	for i := 0; i < 5; i++ {
		m2.Load(0x10000, 4, uint64(i)*3000+1000)
		m2.Load(0x10000+32768, 4, uint64(i)*3000+2000)
		m2.Load(0x10000+65536, 4, uint64(i)*3000+2500)
	}
	if m2.C.L1LoadMisses <= 3 {
		t.Errorf("3 lines in a 2-way set must thrash, misses = %d", m2.C.L1LoadMisses)
	}
}
