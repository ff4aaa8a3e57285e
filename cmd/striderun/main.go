// Command striderun executes one benchmark analog on a simulated machine
// under a prefetching configuration and reports the paper's metrics.
//
// Usage:
//
//	striderun -workload db -machine Pentium4 -mode inter+intra -size full
//	striderun -workload db -hw ipstride
//	striderun -workload jess -explain
//	striderun -workload jess -verify
//	striderun -list
//
// -explain replaces the metric summary with a human-readable decision
// log: every JIT compile, each loop's inspection verdict, each prefetch
// candidate's emit/filter decision with its Sec. 3.3 reason code, and the
// per-site memory attribution of the measured run.
//
// -verify runs the workload through the differential oracle instead: a
// prefetch-blind reference interpreter's architectural fingerprint must
// be reproduced by the full JIT+memsim stack under every prefetching
// configuration on both machines.
//
// -hw selects the simulated hardware-prefetcher model (none, nextline,
// stream, ipstride, tracker, multistride); the default is the machine's
// own model, the per-page stream detector.
//
// -predict selects the prediction source feeding prefetch decisions:
// dynamic (the paper's JIT-time object inspection, the default), static
// (the offline analyzer, no execution), or pgo (replay a recorded
// profile of a dynamic run of the same cell).
//
// Exit status: 0 on success, 1 on execution or verification failure,
// 2 on a usage error (unknown workload, machine, mode, size, gc, hw
// model, or prediction source).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/harness"
	"strider/internal/heap"
	"strider/internal/memsim"
	"strider/internal/vm"
	"strider/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI; main only binds it to the process. All flag
// values are validated up front — an unknown workload, machine, mode,
// size, or gc prints the valid set and returns 2 before anything runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("striderun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "jess", "benchmark analog to run (-list to enumerate)")
	machine := fs.String("machine", "Pentium4", "Pentium4 or AthlonMP")
	modeFlag := fs.String("mode", "inter+intra", "baseline, inter, or inter+intra")
	sizeFlag := fs.String("size", "small", "small or full")
	gcFlag := fs.String("gc", "compact", "compact (sliding compaction) or freelist")
	hwFlag := fs.String("hw", "", "hardware-prefetcher model: "+strings.Join(memsim.HWModels(), ", ")+" (default: the machine's model)")
	predictFlag := fs.String("predict", "", "prediction source: "+strings.Join(jit.PredictSources(), ", ")+" (default: dynamic)")
	list := fs.Bool("list", false, "list workloads and exit")
	dot := fs.String("dot", "", "print the annotated load dependence graphs of a compiled method (qualified name, e.g. ::findInMemory) in Graphviz dot format")
	explain := fs.Bool("explain", false, "print the per-loop prefetch decision log instead of the metric summary")
	verify := fs.Bool("verify", false, "differentially verify the workload against the prefetch-blind oracle instead of measuring it")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintf(stdout, "%-12s %-10s %s\n", "name", "suite", "description")
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-12s %-10s %s\n", w.Name, w.Suite, w.Description)
		}
		return 0
	}

	// Upfront validation of every enumerated flag.
	if _, err := workloads.ByName(*workload); err != nil {
		fmt.Fprintf(stderr, "striderun: %v\n", err)
		return 2
	}
	if arch.ByName(*machine) == nil {
		fmt.Fprintf(stderr, "striderun: unknown machine %q (valid: %s)\n", *machine, strings.Join(machineNames(), ", "))
		return 2
	}
	var mode jit.Mode
	switch *modeFlag {
	case "baseline":
		mode = jit.Baseline
	case "inter":
		mode = jit.Inter
	case "inter+intra":
		mode = jit.InterIntra
	default:
		fmt.Fprintf(stderr, "striderun: unknown mode %q (valid: baseline, inter, inter+intra)\n", *modeFlag)
		return 2
	}
	var size workloads.Size
	switch *sizeFlag {
	case "small":
		size = workloads.SizeSmall
	case "full":
		size = workloads.SizeFull
	default:
		fmt.Fprintf(stderr, "striderun: unknown size %q (valid: small, full)\n", *sizeFlag)
		return 2
	}
	var gc heap.GCMode
	switch *gcFlag {
	case "compact":
		gc = heap.GCSlidingCompact
	case "freelist":
		gc = heap.GCMarkSweepFreeList
	default:
		fmt.Fprintf(stderr, "striderun: unknown gc %q (valid: compact, freelist)\n", *gcFlag)
		return 2
	}
	if !memsim.ValidHWModel(*hwFlag) {
		fmt.Fprintf(stderr, "striderun: unknown hardware-prefetcher model %q (valid: %s)\n",
			*hwFlag, strings.Join(memsim.HWModels(), ", "))
		return 2
	}
	if _, err := jit.ParsePredict(*predictFlag); err != nil {
		fmt.Fprintf(stderr, "striderun: unknown prediction source %q (valid: %s)\n",
			*predictFlag, strings.Join(jit.PredictSources(), ", "))
		return 2
	}

	if *verify {
		rep, err := harness.Verify(*workload, size, gc)
		if err != nil {
			fmt.Fprintf(stderr, "striderun: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, rep.Summary())
		if !rep.OK() {
			return 1
		}
		return 0
	}

	if *dot != "" {
		if err := dumpDot(stdout, *workload, *machine, mode, size, gc, *dot); err != nil {
			fmt.Fprintf(stderr, "striderun: %v\n", err)
			return 1
		}
		return 0
	}

	if *explain {
		log, err := harness.Explain(harness.Spec{
			Workload: *workload, Machine: *machine, Mode: mode, Size: size, GC: gc, HW: *hwFlag,
			Predict: *predictFlag,
		})
		if err != nil {
			fmt.Fprintf(stderr, "striderun: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, log)
		return 0
	}

	s, err := harness.Run(harness.Spec{
		Workload: *workload, Machine: *machine, Mode: mode, Size: size, GC: gc, HW: *hwFlag,
		Predict: *predictFlag,
	})
	if err != nil {
		fmt.Fprintf(stderr, "striderun: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload     %s (%s, %s, %s)\n", *workload, *machine, mode, size)
	fmt.Fprintf(stdout, "cycles       %d\n", s.Cycles)
	fmt.Fprintf(stdout, "instructions %d\n", s.Instructions)
	fmt.Fprintf(stdout, "checksum     %016x\n", s.Checksum)
	fmt.Fprintf(stdout, "compiled     %.1f%% of cycles (%d methods)\n", 100*s.CompiledFraction(), s.CompiledMethods)
	fmt.Fprintf(stdout, "GCs          %d (%d cycles)\n", s.GCs, s.GCCycles)
	fmt.Fprintf(stdout, "L1 load MPI  %.5f\n", s.L1LoadMPI())
	fmt.Fprintf(stdout, "L2 load MPI  %.5f\n", s.L2LoadMPI())
	fmt.Fprintf(stdout, "DTLB MPI     %.5f\n", s.DTLBLoadMPI())
	fmt.Fprintf(stdout, "prefetches   issued=%d guarded=%d dropped=%d useless=%d hw=%d\n",
		s.Mem.PrefetchesIssued, s.Mem.PrefetchesGuarded, s.Mem.PrefetchesDropped,
		s.Mem.PrefetchesUseless, s.Mem.HWPrefetches)
	fmt.Fprintf(stdout, "hw prefetch  model=%s trains=%d hits=%d issued=%d suppressed=%d\n",
		s.HWModel, s.HW.Trains, s.HW.Hits, s.HW.Issued, s.HW.Suppressed)
	fmt.Fprintf(stdout, "codegen      inter=%d specload=%d deref=%d intra=%d (filtered: line=%d dup=%d use=%d)\n",
		s.Prefetch.InterPrefetches, s.Prefetch.SpecLoads, s.Prefetch.DerefPrefetches,
		s.Prefetch.IntraPrefetches, s.Prefetch.FilteredLine, s.Prefetch.FilteredDup, s.Prefetch.FilteredUse)
	fmt.Fprintf(stdout, "JIT ledger   total=%d units, prefetch phase=%d units (%.2f%%), inspection steps=%d\n",
		s.JITUnits, s.PrefetchUnits, 100*float64(s.PrefetchUnits)/float64(max64(s.JITUnits, 1)), s.InspectSteps)
	return 0
}

func machineNames() []string {
	var names []string
	for _, m := range arch.Machines() {
		names = append(names, m.Name)
	}
	return names
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// dumpDot runs the workload once and prints the requested method's
// annotated load dependence graphs in Graphviz format.
func dumpDot(stdout io.Writer, workload, machine string, mode jit.Mode, size workloads.Size, gc heap.GCMode, qname string) error {
	w, err := workloads.ByName(workload)
	if err != nil {
		return err
	}
	m := arch.ByName(machine)
	if m == nil {
		return fmt.Errorf("unknown machine %q", machine)
	}
	prog := w.Build(size)
	v := vm.New(prog, vm.Config{Machine: m, Mode: mode, HeapBytes: w.HeapBytes, GC: gc})
	if _, err := v.Measure(nil, 1); err != nil {
		return err
	}
	method := prog.MethodByName(qname)
	if method == nil {
		return fmt.Errorf("no method %q in %s", qname, workload)
	}
	c := v.CompiledFor(method)
	if c == nil {
		return fmt.Errorf("method %q was never JIT-compiled", qname)
	}
	if len(c.Graphs) == 0 {
		return fmt.Errorf("method %q has no instrumented loops", qname)
	}
	for _, g := range c.Graphs {
		fmt.Fprint(stdout, g.Dot())
	}
	return nil
}
