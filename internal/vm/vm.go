// Package vm assembles the full simulated runtime: heap, memory system,
// execution engine, and the mixed-mode JIT dispatcher. Methods start out
// interpreted; when a method's invocation count reaches the compile
// threshold it is JIT-compiled *at that invocation, with the actual
// argument values* — the contract object inspection depends on (paper
// Sec. 3: "the JIT compiler is invoked for a method when the method is
// about to be executed ... actual values for the parameters are available
// at compile time").
//
// Every activation runs on the engine's threaded micro-ops (interp.Code).
// New builds an interpreted Code for every method of the program, which
// charges the machine's interpretation penalty; the JIT replaces a
// method's Code with a compiled one. Frames pushed before the
// recompile keep their interpreted artifact, so mixed-mode execution —
// and Table 3's compiled-code fractions — stay a simulated property.
//
// Measure follows the paper's methodology (warm-up runs, then the
// measured run) with the warm-ups over a zero-latency memory model:
// nothing a warm-up leaves behind for the measured run — JIT state, the
// heap it resets — depends on memory timing, so only the measured run
// pays for the cache, DTLB and prefetch simulation.
package vm

import (
	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/core/prefetch"
	"strider/internal/heap"
	"strider/internal/interp"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/telemetry"
	"strider/internal/value"
)

// Config configures a VM instance.
type Config struct {
	Machine *arch.Machine
	Mode    jit.Mode

	// HeapBytes sizes the simulated heap (default 64 MiB).
	HeapBytes uint32
	// CompileThreshold is the invocation count that triggers JIT
	// compilation (default 2: first invocation interpreted, second
	// compiled — a minimal mixed mode).
	CompileThreshold int
	// GC selects the collector (default: sliding compaction, as in the
	// paper's JVM).
	GC heap.GCMode

	// JIT optionally overrides the paper-default jit.Options; leave the
	// zero value to use jit.DefaultOptions(Machine, Mode).
	JIT *jit.Options

	// Recorder, when non-nil, receives the VM's telemetry: JIT compile
	// events, per-loop inspection verdicts, per-candidate filter
	// decisions, and (after FlushSites) per-site memory attribution. A
	// nil Recorder adds no allocations to the execution hot loop.
	Recorder telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if c.Machine == nil {
		c.Machine = arch.Pentium4()
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 64 << 20
	}
	if c.CompileThreshold == 0 {
		c.CompileThreshold = 2
	}
	return c
}

// RunStats is the outcome of one VM run.
type RunStats struct {
	Checksum     uint64
	Result       value.Value
	Cycles       uint64
	Instructions uint64

	CompiledCycles       uint64
	CompiledInstructions uint64
	GCs                  uint64
	GCCycles             uint64

	Mem memsim.Counters

	// HWModel names the hardware-prefetcher model the memory simulator ran
	// ("stream" unless the machine selects otherwise); HW holds its
	// per-prefetcher statistics.
	HWModel string
	HW      memsim.HWStats

	// Cumulative JIT ledger for the VM (Figure 11).
	JITUnits        uint64
	PrefetchUnits   uint64
	CompiledMethods int
	Prefetch        prefetch.Stats
	InspectSteps    int
}

// L1LoadMPI returns L1 load misses per retired instruction.
func (r RunStats) L1LoadMPI() float64 { return mpi(r.Mem.L1LoadMisses, r.Instructions) }

// L2LoadMPI returns L2 load misses per retired instruction.
func (r RunStats) L2LoadMPI() float64 { return mpi(r.Mem.L2LoadMisses, r.Instructions) }

// DTLBLoadMPI returns DTLB load misses per retired instruction.
func (r RunStats) DTLBLoadMPI() float64 { return mpi(r.Mem.DTLBLoadMisses, r.Instructions) }

// CompiledFraction returns the share of cycles spent in compiled code.
func (r RunStats) CompiledFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.CompiledCycles) / float64(r.Cycles)
}

func mpi(misses, instrs uint64) float64 {
	if instrs == 0 {
		return 0
	}
	return float64(misses) / float64(instrs)
}

// VM is a simulated Java-style virtual machine with a JIT compiler.
type VM struct {
	Config  Config
	Prog    *ir.Program
	Heap    *heap.Heap
	Mem     *memsim.Memory
	Engine  *interp.Engine
	JITOpts jit.Options

	// methods holds the dispatch state of every method, indexed by
	// ir.Method.Index, so the steady-state Invoke path is one slice index
	// with no allocation.
	methods []method
	// compiledMethods counts the methods the JIT has compiled.
	compiledMethods int

	jitUnits      uint64
	prefetchUnits uint64
	inspectSteps  int
	prefetchStats prefetch.Stats
}

// method is one method's dispatch state.
type method struct {
	// code is the artifact for the method's current tier: interpreted
	// until the compile threshold, then the JIT-compiled body.
	code *interp.Code
	// jit is the JIT artifact, nil while the method is interpreted.
	jit *jit.Compiled
	// count is the number of invocations up to and including the one
	// that compiled the method.
	count int
}

// New creates a VM for a program.
func New(prog *ir.Program, cfg Config) *VM {
	cfg = cfg.withDefaults()
	h := heap.New(cfg.HeapBytes, prog.Universe)
	h.SetGCMode(cfg.GC)
	mem := memsim.New(cfg.Machine)
	v := &VM{
		Config: cfg,
		Prog:   prog,
		Heap:   h,
		Mem:    mem,
	}
	codes := interp.BuildInterpreted(prog)
	v.methods = make([]method, len(codes))
	for i := range codes {
		v.methods[i].code = &codes[i]
	}
	if cfg.JIT != nil {
		v.JITOpts = *cfg.JIT
	} else {
		v.JITOpts = jit.DefaultOptions(cfg.Machine, cfg.Mode)
	}
	if cfg.Recorder != nil {
		v.JITOpts.Rec = cfg.Recorder
	}
	v.Engine = interp.New(prog, h, mem, v, cfg.Machine)
	v.Engine.Rec = cfg.Recorder
	return v
}

// Invoke implements interp.Dispatcher: mixed-mode dispatch with
// compile-at-threshold using the live argument values.
func (v *VM) Invoke(m *ir.Method, args []value.Value) *interp.Code {
	s := &v.methods[m.Index()]
	if s.jit != nil {
		return s.code
	}
	s.count++
	if s.count < v.Config.CompileThreshold {
		return s.code
	}
	c := jit.Compile(v.Prog, v.Heap, m, args, v.JITOpts)
	s.jit = c
	v.compiledMethods++
	v.jitUnits += c.TotalUnits()
	v.prefetchUnits += c.PrefetchUnits
	v.inspectSteps += c.InspectSteps
	addStats(&v.prefetchStats, c.Prefetch)
	if r := v.Config.Recorder; r != nil {
		r.Compile(telemetry.CompileEvent{
			Method:        m.QName(),
			Mode:          v.JITOpts.Mode.String(),
			Invocations:   s.count,
			Loops:         len(c.Graphs),
			InspectSteps:  c.InspectSteps,
			BaseUnits:     c.BaseUnits,
			PrefetchUnits: c.PrefetchUnits,
			Prefetches:    c.Prefetch.Total(),
		})
	}
	s.code = interp.Build(m, c.Code, c.NumRegs, v.Prog.Universe)
	return s.code
}

func addStats(dst *prefetch.Stats, s prefetch.Stats) {
	dst.InterPrefetches += s.InterPrefetches
	dst.SpecLoads += s.SpecLoads
	dst.DerefPrefetches += s.DerefPrefetches
	dst.IntraPrefetches += s.IntraPrefetches
	dst.FilteredLine += s.FilteredLine
	dst.FilteredDup += s.FilteredDup
	dst.FilteredUse += s.FilteredUse
	dst.WorkUnits += s.WorkUnits
}

// CompiledFor returns the JIT artifact for a method, or nil. Diagnostics
// (Table 1) use it to show annotated load dependence graphs.
func (v *VM) CompiledFor(m *ir.Method) *jit.Compiled { return v.methods[m.Index()].jit }

// ResetRun prepares the VM for a fresh run of the program while keeping
// JIT state (compiled code and invocation counts), mirroring the paper's
// "best run under continuous execution" methodology: after the warmup run,
// the measured run executes mostly compiled code and no JIT activity.
func (v *VM) ResetRun() {
	v.Heap.Reset()
	v.Prog.Universe.ResetStatics()
	v.Mem.Reset()
	v.Engine.ResetStats()
}

// Run executes the program's entry method once and returns the run's
// statistics.
func (v *VM) Run(args []value.Value) (RunStats, error) {
	res, err := v.Engine.Run(v.Prog.Entry, args)
	s := v.Engine.S
	stats := RunStats{
		Checksum:             s.Checksum,
		Result:               res,
		Cycles:               s.Cycles,
		Instructions:         s.Instructions,
		CompiledCycles:       s.CompiledCycles,
		CompiledInstructions: s.CompiledInstructions,
		GCs:                  s.GCs,
		GCCycles:             s.GCCycles,
		Mem:                  v.Mem.C,
		HWModel:              v.Mem.HWModel(),
		HW:                   v.Mem.HWStats(),
		JITUnits:             v.jitUnits,
		PrefetchUnits:        v.prefetchUnits,
		CompiledMethods:      v.compiledMethods,
		Prefetch:             v.prefetchStats,
		InspectSteps:         v.inspectSteps,
	}
	return stats, err
}

// FlushTelemetry emits the engine's per-site memory attribution (prefetch
// outcomes per emitting site, demand-load stalls per pc) to the
// configured Recorder and clears it, followed by the hardware
// prefetcher's run summary. Call it after the run of interest — ResetRun
// clears the aggregation, so after Measure the flushed sites cover
// exactly the measured run.
func (v *VM) FlushTelemetry() {
	v.Engine.FlushSites()
	if r := v.Config.Recorder; r != nil {
		hw := v.Mem.HWStats()
		r.HW(telemetry.HWEvent{
			Machine:    v.Config.Machine.Name,
			Model:      v.Mem.HWModel(),
			Trains:     hw.Trains,
			Allocs:     hw.Allocs,
			Hits:       hw.Hits,
			Issued:     hw.Issued,
			Suppressed: hw.Suppressed,
		})
	}
}

// Measure runs the program warmups+1 times, resetting between runs, and
// returns the statistics of the final (steady-state) run.
//
// The warm-up runs execute over interp.FlatMem instead of the memory
// model the engine is wired to: the measured run cannot observe the
// warm-up's memory timing, because ResetRun leaves the memory system
// identical to a freshly constructed one, and the JIT (object inspection
// included) reads only the heap and the argument values, which the
// memory model never touches. So every compiled artifact and every
// measured RunStats is the same as after a simulated warm-up, and only
// host time is saved. The caller's model — the pinned *memsim.Memory or
// a wrapping MemModel — is reinstalled before the measured run, and on
// a warm-up trap before Measure returns. A caller whose model must see
// the warm-up's accesses (the oracle's load tap) drives Run and
// ResetRun itself.
func (v *VM) Measure(args []value.Value, warmups int) (RunStats, error) {
	if warmups > 0 {
		mem := v.Engine.Mem
		v.Engine.SetMem(interp.FlatMem{})
		for i := 0; i < warmups; i++ {
			if _, err := v.Run(args); err != nil {
				v.Engine.SetMem(mem)
				return RunStats{}, err
			}
			v.ResetRun()
		}
		v.Engine.SetMem(mem)
	}
	return v.Run(args)
}
