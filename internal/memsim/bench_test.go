package memsim

import (
	"testing"

	"strider/internal/arch"
)

func BenchmarkLoadHit(b *testing.B) {
	m := New(arch.Pentium4())
	m.Load(0x10000, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x10000, 4, uint64(i)+1000)
	}
}

// BenchmarkProbeHit drives the same steady single-line hit stream as
// BenchmarkLoadHit through the inline hit lane (probe + full-path
// fallback, the exact shape a specialized engine compiles) — the pair's
// ratio is the per-access saving the fast lane buys on an L1 memo hit.
func BenchmarkProbeHit(b *testing.B) {
	m := New(arch.Pentium4())
	m.Load(0x10000, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.LoadHit(0x10000, uint64(i)+1000); !ok {
			m.LoadAt(0x10000, 4, uint64(i)+1000, 0)
		}
	}
}

func BenchmarkLoadStreamMiss(b *testing.B) {
	m := New(arch.AthlonMP())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(uint32(i)*64, 4, uint64(i)*100)
	}
}

func BenchmarkPrefetch(b *testing.B) {
	m := New(arch.AthlonMP())
	m.Load(0x10000, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prefetch(0x10000+uint32(i%60)*64, false, uint64(i)*100)
	}
}

// BenchmarkTLBMissPentium4 walks 128 pages, one load per page, so every
// load misses the Pentium 4's fully associative 64-entry DTLB: each
// access pays the TLB's victim choice and fill.
func BenchmarkTLBMissPentium4(b *testing.B) {
	m := New(arch.Pentium4())
	var now uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += m.Load(uint32(i%128)<<12|uint32(i%32)<<7, 4, now)
	}
}

// BenchmarkL2FillAthlonMP cycles 32 lines that all map to one set of the
// Athlon MP's 16-way L2 (16 KB apart), so every load misses the L1 and the
// L2 and fills both, while the DTLB keeps hitting.
func BenchmarkL2FillAthlonMP(b *testing.B) {
	m := New(arch.AthlonMP())
	var now uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += m.Load(uint32(i%32)<<14, 4, now)
	}
}
