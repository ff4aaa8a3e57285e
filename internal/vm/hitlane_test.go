package vm_test

import (
	"testing"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/interp"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// TestHitLaneUnobservable pins that the memory hit lane is a host-side
// shortcut only. A VM's engine pins its *memsim.Memory and probes
// LoadHit/StoreHit inline; hiding the same simulator behind the MemModel
// interface sends every access through the full LoadAt/Store path
// instead. Every analog, on both machines under inter+intra, must
// measure the same RunStats either way: result, checksum, cycles,
// instruction counts, GC, JIT ledger, and every memsim and
// hardware-prefetcher counter.
func TestHitLaneUnobservable(t *testing.T) {
	measure := func(t *testing.T, w *workloads.Workload, m *arch.Machine, slow bool) vm.RunStats {
		t.Helper()
		v := vm.New(w.Build(workloads.SizeSmall), vm.Config{Machine: m, Mode: jit.InterIntra, HeapBytes: w.HeapBytes})
		if slow {
			v.Engine.SetMem(struct{ interp.MemModel }{v.Mem})
		}
		if got := v.Engine.FastMem() != nil; got == slow {
			t.Fatalf("fast lane pinned = %v with slow = %v", got, slow)
		}
		s, err := v.Measure(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, w := range workloads.All() {
		for _, m := range arch.Machines() {
			t.Run(w.Name+"/"+m.Name, func(t *testing.T) {
				fast, slow := measure(t, w, m, false), measure(t, w, m, true)
				if fast != slow {
					t.Errorf("RunStats diverged across memory lanes:\n fast %+v\n slow %+v", fast, slow)
				}
				if fast.Mem.Loads == fast.Mem.L1LoadMisses {
					t.Error("no L1 load hits: the comparison never exercised the hit lane")
				}
			})
		}
	}
}
