// Tests for the hardware-prefetcher zoo: the model registry, the
// page-geometry bugfixes, per-model behavioural properties (no fill ever
// crosses a page, no model except nextline reacts to pointer chasing),
// statistics conservation through CheckInvariants, and determinism of
// Reset across every model.
package memsim

import (
	"reflect"
	"strings"
	"testing"

	"strider/internal/arch"
)

// fakePort is a minimal HWPort for driving models directly: it records
// every fill and serves presence from the recorded set.
type fakePort struct {
	lineShift uint
	pageShift uint
	fills     []uint64
	present   map[uint64]bool
}

func newFakePort(lineShift, pageShift uint) *fakePort {
	return &fakePort{lineShift: lineShift, pageShift: pageShift, present: map[uint64]bool{}}
}

func (f *fakePort) ProbeL2(addr uint64) bool { return f.present[addr>>f.lineShift] }
func (f *fakePort) FillL2(addr uint64, now uint64) {
	f.fills = append(f.fills, addr)
	f.present[addr>>f.lineShift] = true
}
func (f *fakePort) LineShift() uint { return f.lineShift }
func (f *fakePort) PageShift() uint { return f.pageShift }

func TestHWModelRegistry(t *testing.T) {
	models := HWModels()
	if len(models) == 0 {
		t.Fatal("no models registered")
	}
	// The returned slice is a copy: mutating it must not corrupt the registry.
	models[0] = "corrupted"
	if HWModels()[0] == "corrupted" {
		t.Fatal("HWModels returns the registry's backing array")
	}
	for _, name := range HWModels() {
		if !ValidHWModel(name) {
			t.Errorf("registered model %q not valid", name)
		}
		p := newHWPrefetcher(name, newFakePort(7, 12))
		if p.Name() != name {
			t.Errorf("newHWPrefetcher(%q).Name() = %q", name, p.Name())
		}
	}
	if !ValidHWModel("") {
		t.Error("empty selector (the default) must be valid")
	}
	if ValidHWModel("sdram") {
		t.Error("unknown model accepted")
	}
	if got := newHWPrefetcher("", newFakePort(7, 12)).Name(); got != DefaultHWModel {
		t.Errorf("empty selector constructs %q, want %q", got, DefaultHWModel)
	}
	defer func() {
		if recover() == nil {
			t.Error("newHWPrefetcher with unknown name did not panic")
		}
	}()
	newHWPrefetcher("sdram", newFakePort(7, 12))
}

// smallPageMachine is a Pentium4 variant with 1 KiB pages — a geometry on
// which the old hardcoded `pageShift = 12` differs from the machine's
// actual page size.
func smallPageMachine() *arch.Machine {
	m := *arch.Pentium4()
	m.Name = "SmallPage"
	m.DTLB.PageSize = 1024
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return &m
}

// TestHWRespectsConfiguredPageSize is the regression test for the
// hardcoded-page-shift bug: on a 1 KiB-page machine, the stream detector
// trained on an ascending walk up to the last line of page 0 must NOT
// prefetch into page 1 (the old code derived the page from a 4 KiB shift,
// so both sides of the 1 KiB boundary looked like one page and the
// prefetch crossed it).
func TestHWRespectsConfiguredPageSize(t *testing.T) {
	mem := New(smallPageMachine())
	if got := mem.PageShift(); got != 10 {
		t.Fatalf("PageShift() = %d, want 10 (1 KiB pages)", got)
	}
	// L2 lines are 128 B: page 0 is lines 0..7. Walk them in order; from
	// the third reference on, the detector prefetches line+1, and the
	// reference to line 7 predicts line 8 = address 1024 = page 1.
	now := uint64(0)
	for line := uint64(0); line < 8; line++ {
		now += mem.LoadAt(uint32(line*128), 4, now, 1)
	}
	if mem.ProbeL2(1024) {
		t.Fatal("hardware prefetch crossed the 1 KiB page boundary (line 8 present in L2)")
	}
	hw := mem.HWStats()
	if hw.Suppressed == 0 {
		t.Fatalf("page-crossing prediction was not suppressed: %+v", hw)
	}
	if hw.Issued == 0 {
		t.Fatalf("no in-page prefetches issued; the walk never trained: %+v", hw)
	}
}

// driveHW exercises a Memory with a stream the whole zoo reacts to:
// pc-attributed strided walks (several sites, several strides), a
// pointer-ish noise site, stores, and software prefetches.
func driveHW(mem *Memory) {
	now := uint64(0)
	seed := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 12_000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		switch i % 6 {
		case 0: // dense ascending walk, site 1
			now += mem.LoadAt(uint32(64*(i%6000)), 4, now, 1)
		case 1: // stride-2-lines walk, site 2
			now += mem.LoadAt(uint32(1<<22+256*(i%4000)), 4, now, 2)
		case 2: // alternating compound stride (+1, +3 lines), site 3
			step := uint32(i % 4000)
			now += mem.LoadAt(uint32(1<<23)+128*(step+2*(step/2)), 4, now, 3)
		case 3: // pointer-ish noise, site 4
			now += mem.LoadAt(uint32(16+(seed>>33)%(1<<22)), 4, now, 4)
		case 4:
			now += mem.Store(uint32(seed>>40), 4, now)
		case 5:
			mem.Prefetch(uint32(64*(i%6000))^0x40, i%2 == 0, now)
		}
		now++
	}
}

// machineWithModel clones a machine with the named hardware prefetcher.
func machineWithModel(base *arch.Machine, model string) *arch.Machine {
	m := *base
	m.HWPrefetcher = model
	return &m
}

// TestHWStatsConservation drives every model through the full Memory on
// both machines and asserts the counter algebra (including the
// per-prefetcher relations) holds.
func TestHWStatsConservation(t *testing.T) {
	for _, base := range arch.Machines() {
		for _, model := range HWModels() {
			base, model := base, model
			t.Run(base.Name+"/"+model, func(t *testing.T) {
				mem := New(machineWithModel(base, model))
				mem.EnableSelfCheck()
				driveHW(mem)
				if v := append(mem.Violations(), mem.CheckInvariants()...); len(v) > 0 {
					t.Fatalf("violations: %v", v)
				}
				hw := mem.HWStats()
				if hw.Trains == 0 {
					t.Fatal("model observed no references")
				}
				if mem.C.HWPrefetches != hw.Issued {
					t.Fatalf("HWPrefetches %d != issued %d", mem.C.HWPrefetches, hw.Issued)
				}
			})
		}
	}
}

// TestHWNeverCrossesPage drives each model directly through a fake port
// and asserts that every fill lands in the page of the reference that
// triggered it — the defining constraint of a hardware prefetcher.
func TestHWNeverCrossesPage(t *testing.T) {
	for _, model := range HWModels() {
		model := model
		t.Run(model, func(t *testing.T) {
			port := newFakePort(7, 12)
			p := newHWPrefetcher(model, port)
			seed := uint64(12345)
			now := uint64(0)
			for i := 0; i < 8_000; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				var addr uint64
				switch i % 3 {
				case 0: // ascending dense stream
					addr = uint64(128 * i)
				case 1: // strided stream near page ends
					addr = uint64(1<<30) + uint64(i/3)*4096 + 3968
				case 2: // random
					addr = seed >> 20
				}
				pc := uint64(1 + i%7)
				before := len(port.fills)
				p.Train(addr, pc, now)
				for _, f := range port.fills[before:] {
					if f>>12 != addr>>12 {
						t.Fatalf("train(0x%x) filled 0x%x in a different page", addr, f)
					}
				}
				now += 4
			}
		})
	}
}

// TestHWIgnoresPointerChasing feeds every model an address walk whose
// line deltas are all distinct (a pointer-chase signature: no delta ever
// repeats). No model may predict anything from it — zero prefetches
// issued or attempted. nextline is exempt by design: its prediction is
// unconditional, which is exactly why it generates useless traffic on
// linked structures.
func TestHWIgnoresPointerChasing(t *testing.T) {
	for _, model := range HWModels() {
		if model == "nextline" {
			continue
		}
		model := model
		t.Run(model, func(t *testing.T) {
			port := newFakePort(7, 12)
			p := newHWPrefetcher(model, port)
			// line i^2: consecutive deltas 2i+1 are strictly increasing, so
			// no stride ever repeats and no period can establish.
			for i := uint64(1); i < 400; i++ {
				p.Train((i*i)<<7, 1, i)
			}
			s := p.Stats()
			if s.Issued+s.Suppressed != 0 {
				t.Fatalf("model predicted on a pointer chase: %+v (fills %v)", s, port.fills)
			}
		})
	}
}

// TestHWResetDeterminism runs the same reference stream twice around a
// Reset on the full Memory and requires identical hardware-prefetcher
// statistics — trained state, victim choices, and use ticks must all
// return to their initial values.
func TestHWResetDeterminism(t *testing.T) {
	for _, model := range HWModels() {
		model := model
		t.Run(model, func(t *testing.T) {
			mem := New(machineWithModel(arch.Pentium4(), model))
			driveHW(mem)
			first := mem.HWStats()
			firstC := mem.C
			mem.Reset()
			driveHW(mem)
			if got := mem.HWStats(); got != first {
				t.Fatalf("stats diverged after Reset: %+v vs %+v", got, first)
			}
			if mem.C != firstC {
				t.Fatalf("counters diverged after Reset: %+v vs %+v", mem.C, firstC)
			}
		})
	}
}

// TestResetBitIdentical is the regression test for the reset-state bug:
// for every model, a Memory that ran a workload and was Reset must be
// deeply equal to a freshly constructed one — including the prefetcher's
// internal use ticks, which the old code leaked across Reset.
func TestResetBitIdentical(t *testing.T) {
	for _, model := range HWModels() {
		model := model
		t.Run(model, func(t *testing.T) {
			m := machineWithModel(arch.Pentium4(), model)
			fresh := New(m)
			used := New(m)
			driveHW(used)
			used.Reset()
			if !reflect.DeepEqual(fresh, used) {
				t.Fatalf("reset Memory differs from fresh one\nfresh hw: %#v\nused hw:  %#v",
					fresh.hw, used.hw)
			}
		})
	}
}

// TestCheckInvariantsDetectsHWCorruption tampers with the per-prefetcher
// statistic relations and expects the matching violations.
func TestCheckInvariantsDetectsHWCorruption(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Memory)
		want string
	}{
		{"fills!=issued", func(m *Memory) { m.C.HWPrefetches = 5 }, "HWPrefetches"},
		{"hits>trains", func(m *Memory) { m.hw.(*streamPrefetcher).stats.Hits = 1 }, "hw hits"},
		{"allocs>trains", func(m *Memory) { m.hw.(*streamPrefetcher).stats.Allocs = 1 }, "hw allocs"},
		{"degree", func(m *Memory) {
			s := &m.hw.(*streamPrefetcher).stats
			s.Trains = 1
			s.Hits = 1
			s.Suppressed = maxHWDegree + 1
		}, "suppressed"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mem := New(arch.Pentium4())
			tc.mut(mem)
			v := mem.CheckInvariants()
			found := false
			for _, s := range v {
				if strings.Contains(s, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("violations %v do not mention %q", v, tc.want)
			}
		})
	}
}

// TestMultistrideCompoundPattern drives the compound-stride model with an
// alternating +1/+3-line pattern (period 2) that defeats single-stride
// detectors, and expects it to start replaying the pattern.
func TestMultistrideCompoundPattern(t *testing.T) {
	port := newFakePort(7, 20) // huge pages so the pattern never crosses one
	p := newHWPrefetcher("multistride", port)
	single := newHWPrefetcher("ipstride", newFakePort(7, 20))
	line := uint64(0)
	for i := 0; i < 32; i++ {
		if i%2 == 0 {
			line += 1
		} else {
			line += 3
		}
		p.Train(line<<7, 1, uint64(i))
		single.Train(line<<7, 1, uint64(i))
	}
	if s := p.Stats(); s.Issued == 0 {
		t.Fatalf("multistride never detected the period-2 pattern: %+v", s)
	}
	if s := single.Stats(); s.Issued != 0 {
		t.Fatalf("ipstride issued %d on an alternating stride (should stay unconfirmed)", s.Issued)
	}
}

// TestTrackerDequeEviction fills the tracker deque past capacity and
// checks LRU eviction: the oldest site is forgotten (re-training it
// allocates again), the freshest still predicts.
func TestTrackerDequeEviction(t *testing.T) {
	port := newFakePort(7, 20)
	p := newHWPrefetcher("tracker", port).(*trackerPrefetcher)
	// One more site than capacity; each trains once.
	for pc := uint64(1); pc <= trackerEntries+1; pc++ {
		p.Train(pc<<16, pc, pc)
	}
	if len(p.deque) != trackerEntries {
		t.Fatalf("deque length %d, want %d", len(p.deque), trackerEntries)
	}
	allocs := p.Stats().Allocs
	p.Train(1<<16, 1, 100) // site 1 was evicted: allocates a fresh tracker
	if got := p.Stats().Allocs; got != allocs+1 {
		t.Fatalf("evicted site did not re-allocate (allocs %d -> %d)", allocs, got)
	}
}
