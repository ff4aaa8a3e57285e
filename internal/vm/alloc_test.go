package vm_test

import (
	"testing"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// TestSteadyStateRunZeroAllocs is the hard form of the nil-Recorder
// guarantee: once the JIT has reached steady state, a full reset-and-rerun
// of a workload — the threaded-code loop, the memory simulation, the GC,
// and the mixed-mode dispatcher together — performs zero Go heap
// allocations. Frame slots, register files, the GC mark stack, dispatch
// artifacts, and cache metadata are all preallocated or pooled, so
// simulation speed cannot degrade with allocator or GC pressure. Threaded
// artifacts are built once — the interpreted ones at vm.New, the compiled
// ones at JIT time — and the thread state is a field of the Engine.
// Subtests are named mode/compiled after the tier that runs the
// JIT-compiled methods.
func TestSteadyStateRunZeroAllocs(t *testing.T) {
	for _, mode := range []jit.Mode{jit.Baseline, jit.InterIntra} {
		t.Run(mode.String()+"/compiled", func(t *testing.T) {
			w, err := workloads.ByName("search")
			if err != nil {
				t.Fatal(err)
			}
			prog := w.Build(workloads.SizeSmall)
			v := vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: mode, HeapBytes: w.HeapBytes})
			// Two warmup runs: the first compiles methods as they cross the
			// invocation threshold; the second settles pooled capacities
			// (frame regs, heap high-water mark, inflight queue).
			for i := 0; i < 2; i++ {
				if _, err := v.Run(nil); err != nil {
					t.Fatal(err)
				}
				v.ResetRun()
			}
			allocs := testing.AllocsPerRun(3, func() {
				v.ResetRun()
				if _, err := v.Run(nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state run allocates %.1f objects/run, want 0", allocs)
			}
		})
	}
}
