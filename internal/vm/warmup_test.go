package vm_test

import (
	"testing"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/heap"
	"strider/internal/interp"
	"strider/internal/progfuzz"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// TestMeasureWarmupUnobservable pins that Measure's zero-latency warm-up
// is a host-side shortcut only. Measure(nil, 1) must return the RunStats
// (result, checksum, cycles, instruction counts, GC, JIT ledger, every
// memsim and hardware-prefetcher counter) — or the error text — of a
// reference warm-up on the full simulator, Run; ResetRun; Run, and it
// must leave the engine wired to the model the caller installed: the
// pinned simulator, or the same simulator behind the MemModel interface.
func TestMeasureWarmupUnobservable(t *testing.T) {
	type cell struct {
		name  string
		build func() *vm.VM
		// trap: the cell must trap, in the warm-up, on both paths.
		trap bool
		// gc: the measured run must collect.
		gc bool
		// wrap: also measure with the simulator behind the MemModel
		// interface. TestHitLaneUnobservable measures every analog that
		// way under inter+intra, against the pinned lane.
		wrap bool
	}
	var cells []cell
	for _, w := range workloads.All() {
		for _, m := range arch.Machines() {
			for _, mode := range []jit.Mode{jit.Baseline, jit.Inter, jit.InterIntra} {
				cells = append(cells, cell{name: w.Name + "/" + m.Name + "/" + mode.String(), build: func() *vm.VM {
					return vm.New(w.Build(workloads.SizeSmall), vm.Config{Machine: m, Mode: mode, HeapBytes: w.HeapBytes})
				}})
			}
		}
	}
	cells = append(cells,
		cell{name: "gcchurn/freelist", gc: true, wrap: true, build: func() *vm.VM {
			return vm.New(workloads.GCChurn.Build(workloads.SizeSmall), vm.Config{
				Machine: arch.AthlonMP(), Mode: jit.InterIntra,
				HeapBytes: workloads.GCChurn.HeapBytes, GC: heap.GCMarkSweepFreeList,
			})
		}},
		cell{name: "db/static-predict", wrap: true, build: func() *vm.VM {
			w, _ := workloads.ByName("db")
			m := arch.Pentium4()
			o := jit.DefaultOptions(m, jit.InterIntra)
			o.Predict = jit.PredictStatic
			return vm.New(w.Build(workloads.SizeSmall), vm.Config{Machine: m, Mode: jit.InterIntra, HeapBytes: w.HeapBytes, JIT: &o})
		}},
		// A 4 KiB heap makes this generated program run out of memory.
		cell{name: "fuzz:0x7/trap", trap: true, wrap: true, build: func() *vm.VM {
			return vm.New(progfuzz.Program(7), vm.Config{HeapBytes: 4096})
		}},
	)

	reference := func(v *vm.VM) (vm.RunStats, error) {
		if _, err := v.Run(nil); err != nil {
			return vm.RunStats{}, err
		}
		v.ResetRun()
		return v.Run(nil)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			want, wantErr := reference(c.build())
			if (wantErr != nil) != c.trap {
				t.Fatalf("reference error %v, want a trap = %v", wantErr, c.trap)
			}
			if !c.trap && want.Mem.Loads == 0 {
				t.Fatal("the reference run simulated no loads")
			}
			if c.gc && want.GCs == 0 {
				t.Fatal("the reference run never collected")
			}
			for _, wrapped := range []bool{false, true} {
				if wrapped && !c.wrap {
					continue
				}
				v := c.build()
				if wrapped {
					v.Engine.SetMem(struct{ interp.MemModel }{v.Mem})
				}
				mem, fast := v.Engine.Mem, v.Engine.FastMem()
				if (fast == nil) != wrapped {
					t.Fatalf("wrapped = %v: fast lane pinned = %v", wrapped, fast != nil)
				}
				got, err := v.Measure(nil, 1)
				if errText(err) != errText(wantErr) {
					t.Errorf("wrapped = %v: error %q, reference %q", wrapped, errText(err), errText(wantErr))
				}
				if got != want {
					t.Errorf("wrapped = %v: RunStats diverged from a simulated warm-up:\n got %+v\nwant %+v", wrapped, got, want)
				}
				if v.Engine.Mem != mem || v.Engine.FastMem() != fast {
					t.Errorf("wrapped = %v: Measure left the engine on %T (fast lane %v), want %T (fast lane %v)",
						wrapped, v.Engine.Mem, v.Engine.FastMem() != nil, mem, fast != nil)
				}
			}
		})
	}
}
