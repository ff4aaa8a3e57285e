package memsim

import (
	"testing"

	"strider/internal/arch"
)

// TestHitLaneMatchesFullPath: a probe that completes charges exactly what
// the full access charges and advances the same counters, and a probe
// that bails (cold line, line still in flight) touches nothing.
func TestHitLaneMatchesFullPath(t *testing.T) {
	for _, m := range arch.Machines() {
		t.Run(m.Name, func(t *testing.T) {
			lane, full := New(m), New(m)
			const addr, later = 0x10000, 1_000_000
			if _, ok := lane.LoadHit(addr, 0); ok {
				t.Error("load probe completed on a cold line")
			}
			if _, ok := lane.StoreHit(addr, 0); ok {
				t.Error("store probe completed on a cold line")
			}
			lane.Load(addr, 4, 0)
			full.Load(addr, 4, 0)
			if _, ok := lane.LoadHit(addr, 0); ok {
				t.Error("load probe completed before the line arrived")
			}
			if _, ok := lane.StoreHit(addr, 0); ok {
				t.Error("store probe completed before the line arrived")
			}
			if lane.C != full.C {
				t.Fatalf("bailed probes touched counters:\n%+v\nvs\n%+v", lane.C, full.C)
			}

			got, ok := lane.LoadHit(addr+4, later)
			if want := full.Load(addr+4, 4, later); !ok || got != want {
				t.Errorf("load probe = %d, %v; full load = %d", got, ok, want)
			}
			got, ok = lane.StoreHit(addr+8, later)
			if want := full.Store(addr+8, 4, later); !ok || got != want {
				t.Errorf("store probe = %d, %v; full store = %d", got, ok, want)
			}
			if lane.C != full.C {
				t.Errorf("counters diverge:\n%+v\nvs\n%+v", lane.C, full.C)
			}
		})
	}
}
