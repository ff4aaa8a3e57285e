package server

import (
	"reflect"
	"testing"

	"strider/internal/vm"
)

// freshVsPooled runs one cell twice on the same executor and returns both
// responses: the first builds a fresh VM, the second must reuse it from
// the pool.
func freshVsPooled(t *testing.T, e *executor, jb Job) (fresh, pooled *Response) {
	t.Helper()
	spec := jb.Spec().Canonical()
	fresh = e.run(spec, spec.Key(), false)
	if fresh.Pooled {
		t.Fatalf("%v: first run claims pooled", jb)
	}
	pooled = e.run(spec, spec.Key(), false)
	if !pooled.Pooled {
		t.Fatalf("%v: second run did not reuse the parked VM", jb)
	}
	return fresh, pooled
}

// TestPooledVMReproducesFresh is the VM-pool reset-correctness regression:
// for plain cells, fuzz programs, and a deterministically trapping job, a
// recycled VM must produce a response deeply equal to the fresh VM's.
func TestPooledVMReproducesFresh(t *testing.T) {
	for _, jb := range []Job{
		{Workload: "jess"},
		{Workload: "search", Mode: "baseline", Machine: "AthlonMP"},
		{Workload: "db", GC: "freelist", HW: "ipstride"},
		{Workload: "fuzz:0x3"},
		{Workload: "fuzz:0x9"},
	} {
		e := &executor{pool: newVMPool(16)}
		fresh, pooled := freshVsPooled(t, e, jb)
		if !reflect.DeepEqual(fresh.Deterministic(), pooled.Deterministic()) {
			t.Errorf("%v: pooled response diverges from fresh:\n%+v\nvs\n%+v", jb, fresh, pooled)
		}
		if n := e.pool.poisoned.Load(); n != 0 {
			t.Errorf("%v: healthy reuse counted as poisoned (%d)", jb, n)
		}
	}
}

// TestPooledVMReproducesTrap pins recycling across a trapping execution:
// a job that traps parks its VM with the canonical error text, and the
// recycled VM traps identically — the pool never converts a deterministic
// trap into a different outcome.
func TestPooledVMReproducesTrap(t *testing.T) {
	e := &executor{pool: newVMPool(16)}
	jb := Job{Workload: "fuzz:0x7", HeapBytes: 4096}
	fresh, pooled := freshVsPooled(t, e, jb)
	if fresh.Trap != "out-of-memory" {
		t.Fatalf("trap cell did not trap: %+v", fresh)
	}
	if !reflect.DeepEqual(fresh.Deterministic(), pooled.Deterministic()) {
		t.Errorf("pooled trap diverges from fresh:\n%+v\nvs\n%+v", fresh, pooled)
	}
	if n := e.pool.poisoned.Load(); n != 0 {
		t.Errorf("identical trap counted as poisoned (%d)", n)
	}

	// After the trap, an unrelated healthy cell is unaffected.
	okSpec := Job{Workload: "fuzz:0x3"}.Spec().Canonical()
	ok := e.run(okSpec, okSpec.Key(), false)
	if ok.Trap != "" || ok.Stats == nil {
		t.Errorf("healthy cell after trap cell: %+v", ok)
	}
}

// TestPoolPoisoningGuard pins the guard itself: a parked VM whose recorded
// canonical outcome does not match what the recycled run produces is
// discarded and counted, and the request silently falls back to a fresh
// execution with the correct result. The guard compares the whole
// RunStats, so a reset bug that shifts cycles but keeps the checksum is
// caught too.
func TestPoolPoisoningGuard(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*vm.RunStats)
	}{
		{"checksum", func(s *vm.RunStats) { s.Checksum ^= 0xdeadbeef }},
		{"cycles", func(s *vm.RunStats) { s.Cycles++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &executor{pool: newVMPool(16)}
			spec := Job{Workload: "jess"}.Spec().Canonical()
			key := spec.Key()
			fresh := e.run(spec, key, false)
			if fresh.Stats == nil {
				t.Fatalf("fresh run failed: %+v", fresh)
			}

			// Corrupt the parked VM's canonical stats so the guard must fire.
			pv := e.pool.get(key)
			if pv == nil {
				t.Fatal("no VM parked after fresh run")
			}
			tc.corrupt(&pv.stats)
			e.pool.put(key, pv)

			resp := e.run(spec, key, false)
			if resp.Pooled {
				t.Error("poisoned VM served a response")
			}
			if n := e.pool.poisoned.Load(); n != 1 {
				t.Errorf("poisoned counter = %d, want 1", n)
			}
			if !reflect.DeepEqual(fresh.Deterministic(), resp.Deterministic()) {
				t.Errorf("fallback response diverges from canonical:\n%+v\nvs\n%+v", fresh, resp)
			}
			// The discarded VM is gone; the fallback's fresh VM is parked
			// instead and serves the next request.
			again := e.run(spec, key, false)
			if !again.Pooled {
				t.Error("fresh fallback VM was not re-parked")
			}
			if !reflect.DeepEqual(fresh.Deterministic(), again.Deterministic()) {
				t.Error("re-parked VM diverges from canonical")
			}
		})
	}
}

// TestPoolCapacityAndDisable pins the pool's bounds: capacity 0 disables
// pooling entirely; a full pool drops returns instead of growing.
func TestPoolCapacityAndDisable(t *testing.T) {
	off := &executor{pool: newVMPool(0)}
	spec := Job{Workload: "jess"}.Spec().Canonical()
	off.run(spec, spec.Key(), false)
	r := off.run(spec, spec.Key(), false)
	if r.Pooled {
		t.Error("disabled pool served a recycled VM")
	}
	if off.pool.size() != 0 {
		t.Error("disabled pool parked a VM")
	}

	one := &executor{pool: newVMPool(1)}
	for _, w := range []string{"jess", "db"} {
		s := Job{Workload: w}.Spec().Canonical()
		one.run(s, s.Key(), false)
	}
	if one.pool.size() != 1 {
		t.Errorf("pool size %d, want 1 (capacity)", one.pool.size())
	}
	if one.pool.drops.Load() == 0 {
		t.Error("over-capacity return was not counted as a drop")
	}
}
