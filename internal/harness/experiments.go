package harness

import (
	"fmt"
	"strings"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// SpeedupRow is one bar group of Figure 6 or 7.
type SpeedupRow struct {
	Workload   string
	Inter      float64 // measured INTER speedup, %
	InterIntra float64 // measured INTER+INTRA speedup, %
	PaperInter float64
	PaperBoth  float64
}

// speedupFigure measures one machine's speedup figure. paper holds the
// paper's reported speedups in percent (INTER, INTER+INTRA) per workload.
func (e *Engine) speedupFigure(machine string, size workloads.Size, paper map[string][2]float64) ([]SpeedupRow, error) {
	all := workloads.All()
	var specs []Spec
	for _, w := range all {
		specs = append(specs, modeSpecs(w, machine, size)...)
	}
	stats, err := e.runBatch(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]SpeedupRow, len(all))
	for i, w := range all {
		base, inter, both := stats[3*i], stats[3*i+1], stats[3*i+2]
		pv := paper[w.Name]
		rows[i] = SpeedupRow{w.Name, SpeedupPct(base, inter), SpeedupPct(base, both), pv[0], pv[1]}
	}
	return rows, nil
}

// Figure6 regenerates the Pentium 4 speedup figure. The paper's values
// stated in the text (Sec. 4) are exact: db 18.9/25.1, jess 2.0/2.9,
// euler 15.4/14.0; the rest are read off Figures 6 and 7 and are
// approximate.
func (e *Engine) Figure6(size workloads.Size) ([]SpeedupRow, error) {
	return e.speedupFigure("Pentium4", size, map[string][2]float64{
		"mtrt": {0.5, 1.5}, "jess": {0.2, 2.0}, "compress": {0, 0},
		"db": {0, 18.9}, "mpegaudio": {-1, -1}, "jack": {0, 0},
		"javac": {0, 0}, "euler": {15, 15.4}, "moldyn": {0, 0},
		"montecarlo": {0, 0}, "raytracer": {0, 5}, "search": {0, 0},
	})
}

// Figure7 regenerates the Athlon MP speedup figure.
func (e *Engine) Figure7(size workloads.Size) ([]SpeedupRow, error) {
	return e.speedupFigure("AthlonMP", size, map[string][2]float64{
		"mtrt": {0.5, 1.5}, "jess": {0.3, 2.9}, "compress": {0, 0},
		"db": {0, 25.1}, "mpegaudio": {0, 0}, "jack": {0, 0},
		"javac": {0, 0}, "euler": {13, 14.0}, "moldyn": {2, 3},
		"montecarlo": {0, 0}, "raytracer": {0, -2}, "search": {0, 0},
	})
}

// FormatSpeedups renders a speedup figure as a text table.
func FormatSpeedups(title string, rows []SpeedupRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-11s %12s %12s | %12s %12s\n",
		"benchmark", "INTER", "INTER+INTRA", "paper INTER", "paper I+I")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %+11.2f%% %+11.2f%% | %+11.1f%% %+11.1f%%\n",
			r.Workload, r.Inter, r.InterIntra, r.PaperInter, r.PaperBoth)
	}
	return sb.String()
}

// MPIRow is one bar group of Figures 8, 9, or 10 (misses per thousand
// retired instructions, BASELINE vs INTER+INTRA, on the Pentium 4).
type MPIRow struct {
	Workload string
	Baseline float64 // MPI x 1000
	Opt      float64 // MPI x 1000
}

type mpiMetric func(vm.RunStats) float64

func (e *Engine) mpiFigure(size workloads.Size, metric mpiMetric) ([]MPIRow, error) {
	all := workloads.All()
	var specs []Spec
	for _, w := range all {
		for _, mode := range []jit.Mode{jit.Baseline, jit.InterIntra} {
			specs = append(specs, Spec{Workload: w.Name, Size: size, Machine: "Pentium4", Mode: mode, HeapBytes: w.HeapBytes})
		}
	}
	stats, err := e.runBatch(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]MPIRow, len(all))
	for i, w := range all {
		rows[i] = MPIRow{w.Name, 1000 * metric(stats[2*i]), 1000 * metric(stats[2*i+1])}
	}
	return rows, nil
}

// Figure8 regenerates the L1 cache load MPI comparison.
func (e *Engine) Figure8(size workloads.Size) ([]MPIRow, error) {
	return e.mpiFigure(size, vm.RunStats.L1LoadMPI)
}

// Figure9 regenerates the L2 cache load MPI comparison.
func (e *Engine) Figure9(size workloads.Size) ([]MPIRow, error) {
	return e.mpiFigure(size, vm.RunStats.L2LoadMPI)
}

// Figure10 regenerates the DTLB load MPI comparison.
func (e *Engine) Figure10(size workloads.Size) ([]MPIRow, error) {
	return e.mpiFigure(size, vm.RunStats.DTLBLoadMPI)
}

// FormatMPI renders an MPI figure as a text table.
func FormatMPI(title string, rows []MPIRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (misses per 1000 instructions, Pentium 4)\n", title)
	fmt.Fprintf(&sb, "%-11s %12s %12s %9s\n", "benchmark", "BASELINE", "INTER+INTRA", "change")
	for _, r := range rows {
		change := "-"
		if r.Baseline > 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(r.Opt-r.Baseline)/r.Baseline)
		}
		fmt.Fprintf(&sb, "%-11s %12.3f %12.3f %9s\n", r.Workload, r.Baseline, r.Opt, change)
	}
	return sb.String()
}

// CompileRow is one bar group of Figure 11.
type CompileRow struct {
	Workload string
	// PrefetchOfJITPct is the additional compilation time of the
	// prefetching algorithm over the total JIT compilation time (left
	// bars; paper: < 3.0%).
	PrefetchOfJITPct float64
	// JITOfTotalPct is the total JIT compilation time over the total
	// execution time (right bars; paper: < 13%).
	JITOfTotalPct float64
}

// Figure11 regenerates the compilation-time overhead figure
// (INTER+INTRA on the Pentium 4).
func (e *Engine) Figure11(size workloads.Size) ([]CompileRow, error) {
	all := workloads.All()
	specs := make([]Spec, len(all))
	for i, w := range all {
		specs[i] = Spec{Workload: w.Name, Size: size, Machine: "Pentium4", Mode: jit.InterIntra, HeapBytes: w.HeapBytes}
	}
	stats, err := e.runBatch(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]CompileRow, len(all))
	for i, w := range all {
		s := stats[i]
		var pj, jt float64
		if s.JITUnits > 0 {
			pj = 100 * float64(s.PrefetchUnits) / float64(s.JITUnits)
		}
		if s.Cycles > 0 {
			jt = 100 * float64(s.JITUnits) / float64(s.Cycles)
		}
		rows[i] = CompileRow{w.Name, pj, jt}
	}
	return rows, nil
}

// FormatCompile renders Figure 11 as a text table.
func FormatCompile(rows []CompileRow) string {
	var sb strings.Builder
	sb.WriteString("Figure 11: compilation time overhead (INTER+INTRA, Pentium 4)\n")
	fmt.Fprintf(&sb, "%-11s %22s %22s\n", "benchmark", "prefetch/total JIT (%)", "JIT/total exec (%)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %21.2f%% %21.2f%%\n", r.Workload, r.PrefetchOfJITPct, r.JITOfTotalPct)
	}
	sb.WriteString("paper: prefetch phase < 3.0% of JIT time; JIT time < 13% of execution\n")
	return sb.String()
}

// Table1 regenerates the annotated load dependence graph of
// findInMemory (Table 1 / Figure 5 of the paper) by compiling the jess
// analog with INTER+INTRA on the Pentium 4 and dumping the compiler's
// graphs for the method.
func Table1() (string, error) {
	w, err := workloads.ByName("jess")
	if err != nil {
		return "", err
	}
	prog := w.Build(workloads.SizeSmall)
	v := vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: jit.InterIntra})
	if _, err := v.Measure(nil, 1); err != nil {
		return "", err
	}
	m := prog.MethodByName("::findInMemory")
	c := v.CompiledFor(m)
	if c == nil {
		return "", fmt.Errorf("harness: findInMemory was not JIT-compiled")
	}
	var sb strings.Builder
	sb.WriteString("Table 1 / Figure 5: load instructions of findInMemory and their\n")
	sb.WriteString("load dependence graph, annotated with discovered stride patterns\n\n")
	for _, g := range c.Graphs {
		sb.WriteString(g.String())
	}
	fmt.Fprintf(&sb, "\nprefetch generation: %+v\n", c.Prefetch)
	return sb.String(), nil
}

// Table2 renders the machine parameters (Table 2 of the paper).
func Table2() string {
	var sb strings.Builder
	sb.WriteString("Table 2: parameters related to prefetching\n")
	fmt.Fprintf(&sb, "%-10s %8s %9s %8s %9s %7s %10s %8s\n",
		"Processor", "L1 size", "L1 line", "L2 size", "L2 line", "#DTLB", "pf target", "guarded")
	for _, m := range arch.Machines() {
		fmt.Fprintf(&sb, "%-10s %7dK %8dB %7dK %8dB %7d %10s %8v\n",
			m.Name, m.L1D.SizeBytes>>10, m.L1D.LineBytes,
			m.L2U.SizeBytes>>10, m.L2U.LineBytes, m.DTLB.Entries,
			m.PrefetchTarget, m.GuardedIntraPrefetch)
	}
	return sb.String()
}

// Table3Row is one row of Table 3.
type Table3Row struct {
	Workload         string
	Suite            string
	Description      string
	CompiledPct      float64 // measured
	PaperCompiledPct float64
}

// Table3 regenerates the benchmark descriptions and compiled-code
// fractions (BASELINE, Pentium 4).
func (e *Engine) Table3(size workloads.Size) ([]Table3Row, error) {
	all := workloads.All()
	specs := make([]Spec, len(all))
	for i, w := range all {
		specs[i] = Spec{Workload: w.Name, Size: size, Machine: "Pentium4", Mode: jit.Baseline, HeapBytes: w.HeapBytes}
	}
	stats, err := e.runBatch(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(all))
	for i, w := range all {
		rows[i] = Table3Row{
			Workload:         w.Name,
			Suite:            w.Suite,
			Description:      w.Description,
			CompiledPct:      100 * stats[i].CompiledFraction(),
			PaperCompiledPct: w.PaperCompiledPct,
		}
	}
	return rows, nil
}

// FormatTable3 renders Table 3 as text.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: benchmark descriptions and compiled-code fractions\n")
	fmt.Fprintf(&sb, "%-11s %-10s %-38s %9s %9s\n", "program", "suite", "description", "compiled", "paper")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %-10s %-38s %8.1f%% %8.1f%%\n",
			r.Workload, r.Suite, r.Description, r.CompiledPct, r.PaperCompiledPct)
	}
	return sb.String()
}
