// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Sec. 4), plus the ablation benches DESIGN.md calls out and
// microbenchmarks of the core components.
//
// The experiment benches execute their workloads once (results are cached
// within the process and shared across benches) and report the figures'
// headline numbers as custom metrics; run with -v to see the full
// regenerated tables. Under -short the small problem size is used.
//
//	go test -bench=. -benchmem                 # full evaluation
//	go test -bench=Fig6 -short -v              # quick Figure 6 + table
package strider_test

import (
	"fmt"
	"testing"

	"strider/internal/arch"
	"strider/internal/classfile"
	"strider/internal/core/jit"
	"strider/internal/harness"
	"strider/internal/heap"
	"strider/internal/oracle"
	"strider/internal/value"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// bench runs every experiment cell of the benchmarks, so cells shared
// between benchmarks execute once per process.
var bench = new(harness.Engine)

func benchSize() workloads.Size {
	if testing.Short() {
		return workloads.SizeSmall
	}
	return workloads.SizeFull
}

// spin keeps the benchmark loop non-empty without re-running experiments.
func spin(b *testing.B) {
	for i := 0; i < b.N; i++ {
	}
}

func BenchmarkTable1LoadGraph(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := harness.Table1()
		if err != nil {
			b.Fatal(err)
		}
		out = s
	}
	b.Log("\n" + out)
}

func BenchmarkTable2MachineParams(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = harness.Table2()
	}
	b.Log("\n" + out)
}

func BenchmarkTable3CompiledFraction(b *testing.B) {
	rows, err := bench.Table3(benchSize())
	if err != nil {
		b.Fatal(err)
	}
	spin(b)
	b.Log("\n" + harness.FormatTable3(rows))
	for _, r := range rows {
		b.ReportMetric(r.CompiledPct, r.Workload+"_compiled_%")
	}
}

func benchSpeedupFigure(b *testing.B, fig func(workloads.Size) ([]harness.SpeedupRow, error), title string) {
	rows, err := fig(benchSize())
	if err != nil {
		b.Fatal(err)
	}
	spin(b)
	b.Log("\n" + harness.FormatSpeedups(title, rows))
	for _, r := range rows {
		b.ReportMetric(r.InterIntra, r.Workload+"_interintra_%")
	}
}

func BenchmarkFig6SpeedupsPentium4(b *testing.B) {
	benchSpeedupFigure(b, bench.Figure6, "Figure 6: speedup ratios on the Pentium 4")
}

func BenchmarkFig7SpeedupsAthlonMP(b *testing.B) {
	benchSpeedupFigure(b, bench.Figure7, "Figure 7: speedup ratios on the Athlon MP")
}

func benchMPIFigure(b *testing.B, fig func(workloads.Size) ([]harness.MPIRow, error), title string) {
	rows, err := fig(benchSize())
	if err != nil {
		b.Fatal(err)
	}
	spin(b)
	b.Log("\n" + harness.FormatMPI(title, rows))
	for _, r := range rows {
		if r.Baseline > 0 {
			b.ReportMetric(100*(r.Opt-r.Baseline)/r.Baseline, r.Workload+"_mpi_delta_%")
		}
	}
}

func BenchmarkFig8L1MPI(b *testing.B) {
	benchMPIFigure(b, bench.Figure8, "Figure 8: L1 cache load MPIs")
}

func BenchmarkFig9L2MPI(b *testing.B) {
	benchMPIFigure(b, bench.Figure9, "Figure 9: L2 cache load MPIs")
}

func BenchmarkFig10DTLBMPI(b *testing.B) {
	benchMPIFigure(b, bench.Figure10, "Figure 10: DTLB load MPIs")
}

func BenchmarkFig11CompileOverhead(b *testing.B) {
	rows, err := bench.Figure11(benchSize())
	if err != nil {
		b.Fatal(err)
	}
	spin(b)
	b.Log("\n" + harness.FormatCompile(rows))
	for _, r := range rows {
		b.ReportMetric(r.PrefetchOfJITPct, r.Workload+"_prefetch_of_jit_%")
	}
}

// --- ablations ---------------------------------------------------------------

// jitSpec builds a Spec with overridden JIT options for the db headline
// benchmark.
func dbSpecWith(mod func(*jit.Options)) (harness.Spec, harness.Spec) {
	base := harness.Spec{Workload: "db", Size: benchSizeGlobal, Machine: "Pentium4", Mode: jit.Baseline}
	opt := base
	opt.Mode = jit.InterIntra
	o := jit.DefaultOptions(arch.Pentium4(), jit.InterIntra)
	if mod != nil {
		mod(&o)
	}
	opt.JIT = &o
	return base, opt
}

var benchSizeGlobal workloads.Size

// speedupOf runs the (base, opt) pair as one batch and returns the
// percentage speedup of opt over base.
func speedupOf(b *testing.B, base, opt harness.Spec) float64 {
	b.Helper()
	results, err := bench.RunAll([]harness.Spec{base, opt})
	if err != nil {
		b.Fatal(err)
	}
	return harness.SpeedupPct(results[0].Stats, results[1].Stats)
}

// sweep schedules every (base, opt) pair of an ablation as one grid so the
// worker pool (and the dedup of the repeated base cells) applies across
// the whole sweep, then returns the per-pair results in order.
func sweep(b *testing.B, pairs []harness.Spec) []harness.Result {
	b.Helper()
	results, err := bench.RunAll(pairs)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

// BenchmarkAblationSchedulingDistance sweeps the prefetch scheduling
// distance c (the paper fixes c = 1; Sec. 3.3 notes the right value
// depends on the loop body).
func BenchmarkAblationSchedulingDistance(b *testing.B) {
	benchSizeGlobal = benchSize()
	cs := []int{1, 2, 4, 8}
	var specs []harness.Spec
	for _, c := range cs {
		base, opt := dbSpecWith(func(o *jit.Options) { o.C = c })
		specs = append(specs, base, opt)
	}
	results := sweep(b, specs)
	for i, c := range cs {
		sp := harness.SpeedupPct(results[2*i].Stats, results[2*i+1].Stats)
		b.Logf("db, Pentium4, c=%d: %+6.2f%%", c, sp)
		b.ReportMetric(sp, fmt.Sprintf("c%d_speedup_%%", c))
	}
	spin(b)
}

// BenchmarkAblationInspectionIterations sweeps the number of iterations
// object inspection observes (paper: 20).
func BenchmarkAblationInspectionIterations(b *testing.B) {
	benchSizeGlobal = benchSize()
	ks := []int{5, 10, 20, 40}
	var specs []harness.Spec
	for _, k := range ks {
		base, opt := dbSpecWith(func(o *jit.Options) { o.Inspect.Iterations = k })
		specs = append(specs, base, opt)
	}
	results := sweep(b, specs)
	for i, k := range ks {
		sp := harness.SpeedupPct(results[2*i].Stats, results[2*i+1].Stats)
		b.Logf("db, Pentium4, K=%d: %+6.2f%% (inspection steps %d)",
			k, sp, results[2*i+1].Stats.InspectSteps)
		b.ReportMetric(sp, fmt.Sprintf("k%d_speedup_%%", k))
	}
	spin(b)
}

// BenchmarkAblationMajorityThreshold sweeps the dominant-stride majority
// requirement (paper: 75%). db's backward insertion scan has a dominant
// stride just above 75%, so a stricter threshold destroys the pattern.
func BenchmarkAblationMajorityThreshold(b *testing.B) {
	benchSizeGlobal = benchSize()
	ths := []float64{0.5, 0.65, 0.75, 0.9}
	var specs []harness.Spec
	for _, th := range ths {
		base, opt := dbSpecWith(func(o *jit.Options) { o.Threshold = th })
		specs = append(specs, base, opt)
	}
	results := sweep(b, specs)
	for i, th := range ths {
		sp := harness.SpeedupPct(results[2*i].Stats, results[2*i+1].Stats)
		b.Logf("db, Pentium4, threshold=%.2f: %+6.2f%% (prefetch sites %d)",
			th, sp, results[2*i+1].Stats.Prefetch.Total())
		b.ReportMetric(sp, fmt.Sprintf("t%02.0f_speedup_%%", th*100))
	}
	spin(b)
}

// BenchmarkAblationGuardedLoad compares the Pentium 4 with and without the
// guarded-load mapping for intra-iteration prefetches (TLB priming,
// Sec. 3.3/4). Without it, prefetches are DTLB-cancelled on cold pages.
func BenchmarkAblationGuardedLoad(b *testing.B) {
	size := benchSize()
	w, err := workloads.ByName("db")
	if err != nil {
		b.Fatal(err)
	}
	for _, guarded := range []bool{true, false} {
		machine := arch.Pentium4()
		machine.GuardedIntraPrefetch = guarded
		var cycles [2]uint64
		var dropped uint64
		for i, mode := range []jit.Mode{jit.Baseline, jit.InterIntra} {
			prog := w.Build(size)
			v := vm.New(prog, vm.Config{Machine: machine, Mode: mode})
			s, err := v.Measure(nil, 1)
			if err != nil {
				b.Fatal(err)
			}
			cycles[i] = s.Cycles
			dropped = s.Mem.PrefetchesDropped
		}
		sp := 100 * (float64(cycles[0])/float64(cycles[1]) - 1)
		b.Logf("db, Pentium4, guarded=%v: %+6.2f%% (dropped prefetches %d)", guarded, sp, dropped)
		b.ReportMetric(sp, fmt.Sprintf("guarded_%v_speedup_%%", guarded))
	}
	spin(b)
}

// BenchmarkAblationCompaction runs the gcchurn scenario under the paper's
// sliding-compaction collector and under a non-moving free-list collector:
// compaction preserves the co-allocation strides across the collection;
// the free-list collector scatters the post-GC clusters, the 75% majority
// test fails, and intra-iteration prefetching evaporates (Sec. 4).
func BenchmarkAblationCompaction(b *testing.B) {
	size := benchSize()
	for _, tc := range []struct {
		name string
		gc   heap.GCMode
	}{{"compact", heap.GCSlidingCompact}, {"freelist", heap.GCMarkSweepFreeList}} {
		var cycles [2]uint64
		var intra int
		for i, mode := range []jit.Mode{jit.Baseline, jit.InterIntra} {
			prog := workloads.GCChurn.Build(size)
			v := vm.New(prog, vm.Config{
				Machine: arch.AthlonMP(), Mode: mode,
				HeapBytes: workloads.GCChurn.HeapBytes, GC: tc.gc,
			})
			s, err := v.Measure(nil, 1)
			if err != nil {
				b.Fatal(err)
			}
			cycles[i] = s.Cycles
			intra = s.Prefetch.IntraPrefetches
		}
		sp := 100 * (float64(cycles[0])/float64(cycles[1]) - 1)
		b.Logf("gcchurn, AthlonMP, %s GC: %+6.2f%% (intra prefetch sites %d)", tc.name, sp, intra)
		b.ReportMetric(sp, tc.name+"_speedup_%")
	}
	spin(b)
}

// BenchmarkAblationInterprocedural toggles stepping into callees during
// object inspection — the trade-off the paper leaves open (Sec. 3.2).
func BenchmarkAblationInterprocedural(b *testing.B) {
	benchSizeGlobal = benchSize()
	type cell struct {
		wl string
		ip bool
	}
	var cells []cell
	var specs []harness.Spec
	for _, ip := range []bool{false, true} {
		for _, wl := range []string{"db", "jess"} {
			base := harness.Spec{Workload: wl, Size: benchSizeGlobal, Machine: "Pentium4", Mode: jit.Baseline}
			opt := base
			opt.Mode = jit.InterIntra
			o := jit.DefaultOptions(arch.Pentium4(), jit.InterIntra)
			o.Inspect.Interprocedural = ip
			opt.JIT = &o
			cells = append(cells, cell{wl, ip})
			specs = append(specs, base, opt)
		}
	}
	results := sweep(b, specs)
	for i, c := range cells {
		sp := harness.SpeedupPct(results[2*i].Stats, results[2*i+1].Stats)
		b.Logf("%s, Pentium4, interprocedural=%v: %+6.2f%% (inspection steps %d)",
			c.wl, c.ip, sp, results[2*i+1].Stats.InspectSteps)
		b.ReportMetric(sp, fmt.Sprintf("%s_ip_%v_speedup_%%", c.wl, c.ip))
	}
	spin(b)
}

// BenchmarkAblationAdaptiveC compares the paper's fixed scheduling
// distance against the adaptive per-loop distance extension on the
// streaming workloads, whose tight loop bodies make c = 1 too late.
func BenchmarkAblationAdaptiveC(b *testing.B) {
	benchSizeGlobal = benchSize()
	type cell struct {
		wl       string
		adaptive bool
	}
	var cells []cell
	var specs []harness.Spec
	for _, wl := range []string{"euler", "mtrt", "db"} {
		for _, adaptive := range []bool{false, true} {
			base := harness.Spec{Workload: wl, Size: benchSizeGlobal, Machine: "Pentium4", Mode: jit.Baseline}
			opt := base
			opt.Mode = jit.InterIntra
			o := jit.DefaultOptions(arch.Pentium4(), jit.InterIntra)
			o.AdaptiveC = adaptive
			opt.JIT = &o
			cells = append(cells, cell{wl, adaptive})
			specs = append(specs, base, opt)
		}
	}
	results := sweep(b, specs)
	for i, c := range cells {
		sp := harness.SpeedupPct(results[2*i].Stats, results[2*i+1].Stats)
		b.Logf("%s, Pentium4, adaptiveC=%v: %+6.2f%%", c.wl, c.adaptive, sp)
		b.ReportMetric(sp, fmt.Sprintf("%s_adaptive_%v_speedup_%%", c.wl, c.adaptive))
	}
	spin(b)
}

// --- component microbenchmarks ------------------------------------------------

// BenchmarkJITCompileWithInspection measures the cost of one full JIT
// compilation of the jess query method, object inspection included — the
// "ultra-lightweight" claim in numbers.
func BenchmarkJITCompileWithInspection(b *testing.B) {
	w, _ := workloads.ByName("jess")
	prog := w.Build(workloads.SizeSmall)
	v := vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: jit.Baseline})
	if _, err := v.Run(nil); err != nil {
		b.Fatal(err)
	}
	m := prog.MethodByName("::findInMemory")
	opts := jit.DefaultOptions(arch.Pentium4(), jit.InterIntra)
	// Recover live arguments the same way the inspector example does:
	// the first TokenVector and Token in the heap.
	tvClass := prog.Universe.ByName("TokenVector")
	tokClass := prog.Universe.ByName("Token")
	var tvAddr, tokAddr uint32
	v.Heap.Walk(func(addr, size uint32, c *classfile.Class) bool {
		if c == tvClass && tvAddr == 0 {
			tvAddr = addr
		}
		if c == tokClass && tokAddr == 0 {
			tokAddr = addr
		}
		return tvAddr == 0 || tokAddr == 0
	})
	args := []value.Value{value.Ref(tvAddr), value.Ref(tokAddr)}
	var steps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := jit.Compile(prog, v.Heap, m, args, opts)
		steps = c.InspectSteps
	}
	b.ReportMetric(float64(steps), "inspection_steps/op")
}

// BenchmarkInterpreter measures raw execution speed of the engine.
// BenchmarkOracle prices the differential suite's reference side: the
// prefetch-blind naive interpreter running jess (small), fingerprint
// included. Compare with BenchmarkVM — the full JIT+memsim stack on the
// same workload — to see what the oracle's simplicity buys.
func BenchmarkOracle(b *testing.B) {
	w, err := workloads.ByName("jess")
	if err != nil {
		b.Fatal(err)
	}
	var loads uint64
	for i := 0; i < b.N; i++ {
		// Rebuilt each iteration: the oracle runs over the program's own
		// universe, so statics carry state between runs of one build.
		prog := w.Build(workloads.SizeSmall)
		fp, err := oracle.Run(prog, nil, oracle.Config{HeapBytes: w.HeapBytes})
		if err != nil {
			b.Fatal(err)
		}
		if fp.Trap != oracle.TrapNone {
			b.Fatalf("trap %q", fp.Trap)
		}
		loads = fp.Loads
	}
	b.ReportMetric(float64(loads), "demand_loads/op")
}

// BenchmarkVM is BenchmarkOracle's counterpart: the same workload through
// the full stack (JIT with object inspection, memory simulator) under the
// paper's complete algorithm.
func BenchmarkVM(b *testing.B) {
	w, err := workloads.ByName("jess")
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		prog := w.Build(workloads.SizeSmall)
		v := vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: jit.InterIntra, HeapBytes: w.HeapBytes})
		s, err := v.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles = s.Cycles
	}
	b.ReportMetric(float64(cycles), "simulated_cycles/op")
}

func BenchmarkInterpreter(b *testing.B) {
	w, _ := workloads.ByName("search")
	prog := w.Build(workloads.SizeSmall)
	v := vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: jit.Baseline})
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := v.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs = s.Instructions
		v.ResetRun()
	}
	b.ReportMetric(float64(instrs), "simulated_instrs/op")
}

// BenchmarkGCCollect measures one full sliding-compaction collection of
// the jess heap (rebuilt outside the timer each iteration).
func BenchmarkGCCollect(b *testing.B) {
	w, _ := workloads.ByName("jess")
	prog := w.Build(workloads.SizeSmall)
	v := vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: jit.Baseline})
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v.ResetRun()
		if _, err := v.Run(nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		v.Heap.Collect(func(func(*value.Value)) {})
	}
}
