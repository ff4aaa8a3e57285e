// Package strider is a reproduction of "Stride Prefetching by Dynamically
// Inspecting Objects" (Inagaki, Onodera, Komatsu, Nakatani; PLDI 2003).
//
// It contains a complete simulated Java-style runtime — typed register IR,
// class universe, garbage-collected heap with sliding compaction, a mixed-
// mode VM with a JIT compiler — plus the paper's contribution: stride
// prefetching driven by object inspection (compile-time partial
// interpretation with the actual argument values), discovering both
// inter-iteration and intra-iteration stride patterns over a load
// dependence graph, and a two-machine memory-system simulator (Pentium 4
// and Athlon MP, Table 2) that executes the generated prefetches.
//
// This package is the public facade: build or pick a workload, run it on a
// machine under a prefetching mode, and read the paper's metrics back.
// See the examples/ directory and cmd/experiments for usage.
package strider

import (
	"io"
	"sync"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/harness"
	"strider/internal/heap"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/oracle"
	"strider/internal/telemetry"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// Mode selects the prefetching configuration (the paper's evaluation axes).
type Mode = jit.Mode

// The evaluation configurations of Sec. 4.
const (
	// Baseline disables stride prefetching.
	Baseline = jit.Baseline
	// Inter enables inter-iteration stride prefetching only (the paper's
	// emulation of Wu's algorithm).
	Inter = jit.Inter
	// InterIntra enables the paper's full algorithm.
	InterIntra = jit.InterIntra
)

// Size selects a workload's problem scale.
type Size = workloads.Size

// Problem scales.
const (
	// SizeSmall is a fast test scale.
	SizeSmall = workloads.SizeSmall
	// SizeFull is the evaluation scale.
	SizeFull = workloads.SizeFull
)

// Machine is a simulated machine description.
type Machine = arch.Machine

// Pentium4 returns the Pentium 4 machine of Table 2.
func Pentium4() *Machine { return arch.Pentium4() }

// AthlonMP returns the Athlon MP machine of Table 2.
func AthlonMP() *Machine { return arch.AthlonMP() }

// Machines returns both evaluation machines.
func Machines() []*Machine { return arch.Machines() }

// HWModels returns the names of the simulated hardware-prefetcher models
// (the Spec.HW and Machine.HWPrefetcher selectors): none, nextline,
// stream, ipstride, tracker, multistride.
func HWModels() []string { return memsim.HWModels() }

// SetHWModel installs a process-wide default hardware-prefetcher model
// for specs that leave HW empty ("" restores each machine's own model).
func SetHWModel(name string) error {
	if err := harness.CheckHW(name); err != nil {
		return err
	}
	configure(func(e *harness.Engine) { e.HW = name })
	return nil
}

// PredictSources returns the names of the prediction sources feeding
// prefetch decisions (the Spec.Predict selectors): dynamic (the paper's
// object inspection), static (offline IR analysis, no inspection), pgo
// (replay a recorded inspection profile).
func PredictSources() []string { return jit.PredictSources() }

// SetPredict installs a process-wide default prediction source for specs
// that leave Predict empty ("" restores the dynamic default).
func SetPredict(name string) error {
	if err := harness.CheckPredict(name); err != nil {
		return err
	}
	configure(func(e *harness.Engine) { e.Predict = name })
	return nil
}

// Workload is one benchmark analog (see internal/workloads).
type Workload = workloads.Workload

// Workloads returns the twelve benchmark analogs in Table 3 order.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName returns a workload by its Table 3 name.
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Spec identifies one experimental run.
type Spec = harness.Spec

// RunStats is the result of one measured run.
type RunStats = vm.RunStats

// Run executes one experiment spec (results are cached per process;
// concurrent callers with the same spec share one underlying execution).
func Run(s Spec) (RunStats, error) { return engine().Run(s) }

// Result is the outcome of one cell of a batch run.
type Result = harness.Result

// Grid is a batch of experiment cells scheduled across a bounded worker
// pool with deduplication of identical cells.
type Grid = harness.Grid

// RunAll executes a batch of specs across the worker pool and returns
// results in order; the error is the first cell error, if any.
func RunAll(specs []Spec) ([]Result, error) { return engine().RunAll(specs) }

// SetParallelism sets the default worker-pool size for batch runs
// (n <= 0 restores the default, GOMAXPROCS).
func SetParallelism(n int) { configure(func(e *harness.Engine) { e.Parallel = n }) }

// Parallelism returns the current default worker-pool size.
func Parallelism() int { return engine().Parallelism() }

// SetProgress directs per-cell progress and timing lines to w (nil, the
// default, disables them). Table and figure output is unaffected, so
// results stay byte-identical at every parallelism level.
func SetProgress(w io.Writer) { configure(func(e *harness.Engine) { e.Progress = w }) }

// Recorder receives the stack's telemetry events: JIT compiles, loop
// inspection verdicts, Sec. 3.3 filter decisions, per-site memory
// attribution, and grid cell scheduling. Implementations must be safe for
// concurrent use when batch runs are parallel.
type Recorder = telemetry.Recorder

// Trace is the built-in Recorder: a concurrency-safe in-memory collector
// with Chrome trace_event JSON export (WriteChromeTrace), CSV metric
// export (WriteCSV), and a human-readable decision log (DecisionLog).
type Trace = telemetry.Trace

// NewTrace returns an empty Trace.
func NewTrace() *Trace { return telemetry.NewTrace() }

// SetRecorder installs r as the telemetry sink for subsequent Run/RunAll
// calls (nil, the default, disables telemetry at zero cost). Cells served
// from the result cache emit only their grid cell event — use Explain for
// a complete single-run decision trace.
func SetRecorder(r Recorder) { configure(func(e *harness.Engine) { e.Recorder = r }) }

// Explain runs one spec on a private, uncached VM with tracing enabled
// and returns the human-readable per-loop prefetch decision log.
func Explain(s Spec) (string, error) { return engine().Explain(s) }

// VerifyReport is the outcome of one differential verification: the
// reference fingerprint, one cell per (machine, prefetch mode)
// configuration, and every mismatch found.
type VerifyReport = oracle.Report

// Verify proves a workload's semantics are prefetch-invariant: a naive
// prefetch-blind reference interpreter and the full JIT+memsim stack must
// produce identical architectural fingerprints (result, output checksum,
// demand-load address stream, final heap, live object graph, statics, GC
// count) under every prefetching configuration on both machines.
// Compile-time object inspection is additionally checked for heap and
// statics leaks, and the memory simulator's counter and inclusion
// invariants are asserted for every cell.
func Verify(workload string, size Size, gc GCMode) (*VerifyReport, error) {
	return harness.Verify(workload, size, gc)
}

// Speedups measures the INTER and INTER+INTRA speedups (percent) of a
// workload over BASELINE on the named machine.
func Speedups(workload, machine string, size Size) (inter, interIntra float64, err error) {
	return engine().Speedups(workload, machine, size)
}

// The facade runs every cell on one harness Engine. An Engine's settings
// are fixed once it runs, so each Set* call swaps in a new Engine with
// the changed setting and the others carried over: runs already started
// finish on the engine they began on, and the new one starts with empty
// caches.
var (
	facadeMu sync.Mutex
	facade   = new(harness.Engine)
)

// engine returns the facade's current Engine.
func engine() *harness.Engine {
	facadeMu.Lock()
	defer facadeMu.Unlock()
	return facade
}

// configure replaces the facade's Engine with one whose settings are the
// current ones changed by set.
func configure(set func(*harness.Engine)) {
	facadeMu.Lock()
	defer facadeMu.Unlock()
	e := &harness.Engine{
		HW:       facade.HW,
		Predict:  facade.Predict,
		Recorder: facade.Recorder,
		Parallel: facade.Parallel,
		Progress: facade.Progress,
	}
	set(e)
	facade = e
}

// Program is an IR program; VM executes them. Exposed so examples can
// build custom programs against the VM directly.
type Program = ir.Program

// VM is the simulated virtual machine.
type VM = vm.VM

// VMConfig configures a VM.
type VMConfig = vm.Config

// NewVM creates a VM for a program.
func NewVM(p *Program, cfg VMConfig) *VM { return vm.New(p, cfg) }

// GCMode selects the collector behaviour.
type GCMode = heap.GCMode

// Collector modes.
const (
	// GCSlidingCompact is the paper's order-preserving collector.
	GCSlidingCompact = heap.GCSlidingCompact
	// GCMarkSweepFreeList is the non-moving ablation collector.
	GCMarkSweepFreeList = heap.GCMarkSweepFreeList
)
