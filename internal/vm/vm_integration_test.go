package vm_test

import (
	"testing"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/vm"
	"strider/internal/workloads"
)

func runOnce(t *testing.T, name string, machine *arch.Machine, mode jit.Mode) vm.RunStats {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workloads.SizeSmall)
	if err := prog.Validate(); err != nil {
		t.Fatalf("%s: invalid program: %v", name, err)
	}
	v := vm.New(prog, vm.Config{Machine: machine, Mode: mode, HeapBytes: 32 << 20})
	stats, err := v.Measure(nil, 1)
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", name, machine.Name, mode, err)
	}
	return stats
}

// TestJessEndToEnd exercises the full pipeline on the paper's motivating
// example: compile with object inspection, find the patterns of Table 1,
// emit dereference-based prefetching, and preserve program semantics.
func TestJessEndToEnd(t *testing.T) {
	p4 := arch.Pentium4()
	base := runOnce(t, "jess", p4, jit.Baseline)
	inter := runOnce(t, "jess", p4, jit.Inter)
	both := runOnce(t, "jess", p4, jit.InterIntra)

	if base.Checksum == 0 {
		t.Fatal("baseline produced empty checksum; workload sinks nothing")
	}
	if inter.Checksum != base.Checksum || both.Checksum != base.Checksum {
		t.Fatalf("prefetching changed semantics: base=%x inter=%x both=%x",
			base.Checksum, inter.Checksum, both.Checksum)
	}
	// The paper reports that for jess only L4 has an inter-iteration
	// stride and its stride (4 bytes) is below half a cache line, so the
	// INTER configuration generates no effective prefetch for the hot
	// query loop, while INTER+INTRA generates dereference-based
	// prefetching.
	if inter.Prefetch.InterPrefetches != 0 {
		t.Errorf("INTER: want 0 plain prefetches in jess (stride 4 < line/2), got %d",
			inter.Prefetch.InterPrefetches)
	}
	if both.Prefetch.SpecLoads == 0 || both.Prefetch.DerefPrefetches == 0 {
		t.Errorf("INTER+INTRA: want dereference-based prefetching, got %+v", both.Prefetch)
	}
	if both.Mem.PrefetchesIssued == 0 {
		t.Error("INTER+INTRA: no prefetches executed at run time")
	}
	t.Logf("baseline cycles=%d, inter=%d, inter+intra=%d (speedup %.2f%%)",
		base.Cycles, inter.Cycles, both.Cycles,
		100*(float64(base.Cycles)/float64(both.Cycles)-1))
	t.Logf("prefetch stats: %+v", both.Prefetch)
	t.Logf("mem: %+v", both.Mem)
}
