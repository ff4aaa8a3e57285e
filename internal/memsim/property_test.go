// Property and invariant tests for the memory simulator: LRU replacement
// correctness against a shadow model, and counter conservation laws over
// fuzzed access streams on both evaluation machines.
package memsim

import (
	"math/rand"
	"testing"

	"strider/internal/arch"
	"strider/internal/telemetry"
)

// present reports whether addr's line is in c, without touching recency.
func present(c *cache, addr uint64) bool {
	_, ok := c.probe(addr)
	return ok
}

// TestLRUNeverEvictsMRU fills one set to capacity, touches a line to make
// it most recently used, then forces an eviction: the MRU line must
// survive and the least recently used line must be the victim.
func TestLRUNeverEvictsMRU(t *testing.T) {
	// 2 sets x 4 ways x 64-byte lines. Addresses addr(i) = i*2*64 all map
	// to set 0 with distinct tags.
	c := newCache(arch.CacheParams{SizeBytes: 512, LineBytes: 64, Assoc: 4})
	addr := func(i uint64) uint64 { return i * 2 * 64 }

	for i := uint64(0); i < 4; i++ {
		c.fill(addr(i), 10+i)
	}
	if ready, ok := c.lookup(addr(0)); !ok || ready != 10 {
		t.Fatalf("line 0 right after fill: lookup = %d, %v; want 10, true", ready, ok)
	}
	// LRU order is now 1, 2, 3, 0. The next conflicting fill must evict
	// line 1 and leave the MRU line 0 alone.
	c.fill(addr(4), 0)
	if !present(c, addr(0)) {
		t.Error("MRU line was evicted")
	}
	if present(c, addr(1)) {
		t.Error("LRU line survived the eviction")
	}
	for _, i := range []uint64{2, 3, 4} {
		if !present(c, addr(i)) {
			t.Errorf("line %d unexpectedly evicted", i)
		}
	}
}

type namedGeometry struct {
	name string
	p    arch.CacheParams
}

// shadowGeometries returns every cache and DTLB geometry of the modelled
// machines, plus the small 4-way geometry the shadow test has always
// covered.
func shadowGeometries() []namedGeometry {
	g := []namedGeometry{{"toy-4way", arch.CacheParams{SizeBytes: 1024, LineBytes: 64, Assoc: 4}}}
	for _, m := range arch.Machines() {
		g = append(g,
			namedGeometry{m.Name + "/L1D", m.L1D},
			namedGeometry{m.Name + "/L2U", m.L2U},
			namedGeometry{m.Name + "/DTLB", arch.CacheParams{
				SizeBytes: m.DTLB.Entries * m.DTLB.PageSize,
				LineBytes: m.DTLB.PageSize,
				Assoc:     m.DTLB.Assoc,
			}})
	}
	return g
}

// TestLRUMatchesShadowModel fuzzes fill/lookup sequences against a plain
// recency-list model of every set, on every cache and DTLB geometry of
// the modelled machines (2-, 4-, 8- and 16-way sets and the fully
// associative 64-entry DTLB). After every operation the set must hold
// exactly the shadow's lines, and every hit must return the arrival time
// the line was filled with.
func TestLRUMatchesShadowModel(t *testing.T) {
	for _, g := range shadowGeometries() {
		t.Run(g.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42, 1234} {
				checkShadowLRU(t, g.p, seed)
			}
		})
	}
}

type shadowLine struct{ tag, readyAt uint64 }

func checkShadowLRU(t *testing.T, p arch.CacheParams, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := newCache(p)
	sets := int(p.Sets())
	assoc := int(p.Assoc)
	// Pressure a few sets spread across the index range: conflict misses
	// need many operations per set, and the highest-associativity caches
	// have the most sets.
	hot := []int{0, sets / 3, 2 * sets / 3, sets - 1}[:min(sets, 4)]

	// shadow[s] holds the lines of set s, most recent first.
	shadow := make(map[int][]shadowLine)
	find := func(s int, tag uint64) int {
		for i, l := range shadow[s] {
			if l.tag == tag {
				return i
			}
		}
		return -1
	}
	toFront := func(s, i int) {
		list := shadow[s]
		l := list[i]
		copy(list[1:i+1], list[:i])
		list[0] = l
	}

	ops := 8000 * len(hot) * max(1, assoc/16)
	for op := 0; op < ops; op++ {
		// 4*assoc distinct lines per set guarantee conflict pressure.
		tagIdx := uint64(rng.Intn(4 * assoc))
		set := hot[rng.Intn(len(hot))]
		addr := (tagIdx*uint64(sets) + uint64(set)) * uint64(p.LineBytes)
		tag := addr >> c.lineShift
		if int(tag&c.setMask) != set {
			t.Fatalf("seed %d: address construction wrong: set %d != %d", seed, tag&c.setMask, set)
		}
		i := find(set, tag)
		if rng.Intn(2) == 0 {
			ready, ok := c.lookup(addr)
			if ok != (i >= 0) {
				t.Fatalf("seed %d op %d: lookup(set %d, tag %d) hit=%v, shadow says %v",
					seed, op, set, tag, ok, i >= 0)
			}
			if ok {
				if want := shadow[set][i].readyAt; ready != want {
					t.Fatalf("seed %d op %d: lookup(set %d, tag %d) readyAt %d, want %d",
						seed, op, set, tag, ready, want)
				}
				toFront(set, i)
			}
		} else if i >= 0 {
			// The simulator never fills a resident line (every caller
			// looks up or probes first), so model this case as a recency
			// touch.
			c.lookup(addr)
			toFront(set, i)
		} else {
			ready := uint64(op)
			c.fill(addr, ready)
			list := append([]shadowLine{{tag, ready}}, shadow[set]...)
			shadow[set] = list[:min(len(list), assoc)]
		}
		// The shadow set and the real set must agree exactly: every shadow
		// line present with its arrival time, and no other line held.
		for _, l := range shadow[set] {
			if ready, ok := c.probe(l.tag << c.lineShift); !ok || ready != l.readyAt {
				t.Fatalf("seed %d op %d: shadow line %d (ready %d) in set %d: probe = %d, %v",
					seed, op, l.tag, l.readyAt, set, ready, ok)
			}
		}
		held := 0
		base := set * assoc
		for _, tg := range c.tags[base : base+assoc] {
			if tg != invalidTag {
				held++
			}
		}
		if held != len(shadow[set]) {
			t.Fatalf("seed %d op %d: set %d holds %d lines, shadow %d", seed, op, set, held, len(shadow[set]))
		}
	}
}

// TestCounterConservation runs fuzzed access streams on both machines and
// checks the conservation laws that must hold between the counters, and
// between the counters and the per-call Prefetch outcomes.
func TestCounterConservation(t *testing.T) {
	for _, m := range arch.Machines() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			for _, seed := range []int64{3, 99, 2026} {
				mem := New(m)
				rng := rand.New(rand.NewSource(seed))
				var outcomes [4]uint64 // indexed by PrefetchOutcome
				now := uint64(0)
				addr := func() uint32 {
					if rng.Intn(2) == 0 {
						// Strided stream: realistic for the prefetcher paths.
						return uint32(rng.Intn(64))*4096 + uint32(rng.Intn(64))*64
					}
					return uint32(rng.Intn(1 << 22))
				}
				for op := 0; op < 20000; op++ {
					now += uint64(rng.Intn(10)) + 1
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4:
						mem.Load(addr(), 4, now)
					case 5, 6:
						mem.Store(addr(), 4, now)
					default:
						out := mem.Prefetch(addr(), rng.Intn(2) == 0, now)
						outcomes[out]++
					}
				}
				c := mem.C

				le := func(a, b uint64, name string) {
					if a > b {
						t.Errorf("seed %d: %s violated: %d > %d", seed, name, a, b)
					}
				}
				le(c.L1LoadMisses, c.Loads, "L1LoadMisses <= Loads")
				le(c.L2LoadMisses, c.L1LoadMisses, "L2LoadMisses <= L1LoadMisses")
				le(c.DTLBLoadMisses, c.Loads, "DTLBLoadMisses <= Loads")
				le(c.L1StoreMisses, c.Stores, "L1StoreMisses <= Stores")
				le(c.L2StoreMisses, c.L1StoreMisses, "L2StoreMisses <= L1StoreMisses")
				le(c.DTLBStoreMisses, c.Stores, "DTLBStoreMisses <= Stores")
				le(c.PrefetchesGuarded, c.PrefetchesIssued, "Guarded <= Issued")
				le(c.PrefetchesDropped+c.PrefetchesUseless, c.PrefetchesIssued,
					"Dropped+Useless <= Issued")

				// The per-call outcomes must tally exactly with the counters.
				total := outcomes[telemetry.PrefetchFetched] +
					outcomes[telemetry.PrefetchUseless] +
					outcomes[telemetry.PrefetchDroppedTLB] +
					outcomes[telemetry.PrefetchDroppedQueue]
				if total != c.PrefetchesIssued {
					t.Errorf("seed %d: outcome total %d != PrefetchesIssued %d",
						seed, total, c.PrefetchesIssued)
				}
				if outcomes[telemetry.PrefetchUseless] != c.PrefetchesUseless {
					t.Errorf("seed %d: useless outcomes %d != PrefetchesUseless %d",
						seed, outcomes[telemetry.PrefetchUseless], c.PrefetchesUseless)
				}
				dropped := outcomes[telemetry.PrefetchDroppedTLB] + outcomes[telemetry.PrefetchDroppedQueue]
				if dropped != c.PrefetchesDropped {
					t.Errorf("seed %d: dropped outcomes %d != PrefetchesDropped %d",
						seed, dropped, c.PrefetchesDropped)
				}
			}
		})
	}
}
