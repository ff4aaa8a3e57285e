package oracle

// The differ: run one program through the full JIT+memsim stack under
// every prefetching configuration on both machine models, and assert that
// each run's architectural fingerprint equals the reference
// interpreter's. Every cell runs its methods, interpreted and
// JIT-compiled, on the engine's threaded micro-ops (internal/interp), so
// the whole matrix also pins both tiers. This is the only file in the
// package that imports the real execution stack.

import (
	"errors"
	"fmt"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/heap"
	"strider/internal/interp"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/static"
	"strider/internal/telemetry"
	"strider/internal/value"
	"strider/internal/vm"
)

// Configuration is one cell of the verification matrix: a machine and a
// prefetching mode (the paper's evaluation axes plus the interprocedural
// inspection extension).
type Configuration struct {
	Machine *arch.Machine
	Mode    jit.Mode
	// Interprocedural toggles the inspection extension that steps into
	// direct calls (Sec. 3.2 leaves it as a trade-off). Inspection must
	// be side-effect free either way.
	Interprocedural bool
	// HW selects the hardware-prefetcher model memsim simulates ("" = the
	// default stream detector). Hardware prefetching only moves lines
	// between cache levels, so every model must reproduce the same
	// fingerprint — the axis is prefetch-blind by construction and this
	// matrix proves it stays that way.
	HW string
	// Predict selects the prediction source feeding the prefetch decisions
	// (dynamic inspection, the static analyzer, or a PGO replay). A
	// mispredicted static prefetch touches the wrong line early — it must
	// never change what the program computes, and this axis proves it.
	Predict jit.PredictSource
}

// Label renders the configuration compactly, e.g. "Pentium4/inter+intra+ip"
// or "AthlonMP/inter+hw:ipstride" (the default hardware model carries no
// suffix, so pre-existing labels are unchanged).
func (c Configuration) Label() string {
	l := c.Machine.Name + "/" + c.Mode.String()
	if c.Interprocedural {
		l += "+ip"
	}
	if c.HW != "" && c.HW != memsim.DefaultHWModel {
		l += "+hw:" + c.HW
	}
	if c.Predict != jit.PredictDynamic {
		l += "+p:" + c.Predict.String()
	}
	return l
}

// Configurations returns the software-prefetch verification matrix for the
// given machines: no-prefetch, inter, inter+intra, and inter+intra with
// interprocedural inspection — four configurations per machine, all on the
// default hardware model.
func Configurations(machines []*arch.Machine) []Configuration {
	return ConfigurationsHW(machines, []string{memsim.DefaultHWModel})
}

// ConfigurationsHW returns the full software×hardware cross-product: the
// four software configurations of Configurations under each named
// hardware-prefetcher model, per machine.
func ConfigurationsHW(machines []*arch.Machine, hwModels []string) []Configuration {
	var cs []Configuration
	for _, m := range machines {
		for _, hw := range hwModels {
			cs = append(cs,
				Configuration{Machine: m, Mode: jit.Baseline, HW: hw},
				Configuration{Machine: m, Mode: jit.Inter, HW: hw},
				Configuration{Machine: m, Mode: jit.InterIntra, HW: hw},
				Configuration{Machine: m, Mode: jit.InterIntra, Interprocedural: true, HW: hw},
			)
		}
	}
	return cs
}

// PredictConfigurations returns the prediction-source verification matrix:
// every prefetch-emitting software configuration under the static analyzer
// and under a PGO replay, per machine, on the default hardware model.
// (Baseline emits no prefetches, so the axis has nothing to move there.)
func PredictConfigurations(machines []*arch.Machine) []Configuration {
	var cs []Configuration
	for _, m := range machines {
		for _, p := range []jit.PredictSource{jit.PredictStatic, jit.PredictPGO} {
			cs = append(cs,
				Configuration{Machine: m, Mode: jit.Inter, Predict: p},
				Configuration{Machine: m, Mode: jit.InterIntra, Predict: p},
				Configuration{Machine: m, Mode: jit.InterIntra, Interprocedural: true, Predict: p},
			)
		}
	}
	return cs
}

// Cell is the outcome of one configuration's run.
type Cell struct {
	Config      string
	Fingerprint Fingerprint
	// MemViolations are memory-model invariant violations observed during
	// the run (counter conservation, fill-time inclusion, stall bounds).
	MemViolations []string
}

// Report is the outcome of one differential verification.
type Report struct {
	// Reference is the oracle's fingerprint.
	Reference Fingerprint
	// Cells holds one entry per configuration.
	Cells []Cell
	// Mismatches lists every disagreement: fingerprint deviations from
	// the reference, memory-model violations, and inspection leaks. Empty
	// means the program's semantics are provably prefetch-invariant for
	// this matrix.
	Mismatches []string
}

// OK reports whether verification passed.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

// Summary renders a short human-readable verdict.
func (r *Report) Summary() string {
	if r.OK() {
		return fmt.Sprintf("verified: %d configurations reproduce the oracle fingerprint\n  oracle: %s",
			len(r.Cells), r.Reference)
	}
	s := fmt.Sprintf("FAILED: %d mismatches across %d configurations", len(r.Mismatches), len(r.Cells))
	for _, m := range r.Mismatches {
		s += "\n  " + m
	}
	return s
}

// Options configures a verification.
type Options struct {
	// HeapBytes sizes every heap (0 = the VM default, 64 MiB). The oracle
	// and every cell must agree, or addresses diverge trivially.
	HeapBytes uint32
	// GC selects the collector mode for oracle and cells.
	GC heap.GCMode
	// Machines defaults to both evaluation machines.
	Machines []*arch.Machine
	// HWModels lists the hardware-prefetcher models to replay every
	// software configuration under; it defaults to every model in the zoo
	// (memsim.HWModels), so a default Verify proves the entire
	// software×hardware matrix prefetch-blind.
	HWModels []string
	// SkipLeakCheck disables the per-machine compile-time inspection leak
	// check (used by callers that run it separately).
	SkipLeakCheck bool
}

// Verify runs build()'s program through the reference interpreter and
// through the full stack under every configuration, and returns the
// differential report. build must return a fresh, structurally identical
// program on each call (each cell needs private statics and heap).
func Verify(build func() *ir.Program, opts Options) (*Report, error) {
	if len(opts.Machines) == 0 {
		opts.Machines = arch.Machines()
	}
	if len(opts.HWModels) == 0 {
		opts.HWModels = memsim.HWModels()
	}
	for _, hw := range opts.HWModels {
		if !memsim.ValidHWModel(hw) {
			return nil, fmt.Errorf("oracle: unknown hardware-prefetcher model %q (valid: %v)",
				hw, memsim.HWModels())
		}
	}
	ref, err := Run(build(), nil, Config{HeapBytes: opts.HeapBytes, GC: opts.GC})
	if err != nil {
		return nil, fmt.Errorf("oracle reference run: %w", err)
	}
	r := &Report{Reference: ref}
	configs := ConfigurationsHW(opts.Machines, opts.HWModels)
	configs = append(configs, PredictConfigurations(opts.Machines)...)
	for _, c := range configs {
		cell := runCell(build, c, opts.HeapBytes, opts.GC)
		r.Cells = append(r.Cells, cell)
		for _, d := range ref.Diff(cell.Fingerprint) {
			r.Mismatches = append(r.Mismatches, cell.Config+": "+d)
		}
		for _, v := range cell.MemViolations {
			r.Mismatches = append(r.Mismatches, cell.Config+": memsim: "+v)
		}
	}
	if !opts.SkipLeakCheck {
		for _, m := range opts.Machines {
			for _, leak := range CompileLeakCheck(build, m, opts.HeapBytes, opts.GC) {
				r.Mismatches = append(r.Mismatches, m.Name+": "+leak)
			}
		}
	}
	return r, nil
}

// loadTap wraps the cell's memory simulator and digests the demand-load
// address stream exactly as the oracle does. Prefetches pass through
// untapped: they must be architecturally invisible.
//
// Installing the tap (via SetMem) unpins the engine's devirtualized fast
// lane — the engine must dispatch through the tap so no load escapes the
// digest. To keep the 60-cell matrix exercising the hit-lane probes
// anyway, the tap routes each access through LoadHit/StoreHit with the
// full call as fallback, exactly like a specialized engine site, so every
// cell checks the probes against the reference's fingerprint while
// memsim's self-check and invariants run.
type loadTap struct {
	mem   *memsim.Memory
	loads loadAccum
}

func (t *loadTap) LoadAt(addr, size uint32, now uint64, pc uint64) uint64 {
	t.loads.record(addr, size)
	if stall, hit := t.mem.LoadHit(addr, now); hit {
		return stall
	}
	return t.mem.LoadAt(addr, size, now, pc)
}

func (t *loadTap) Store(addr, size uint32, now uint64) uint64 {
	if stall, hit := t.mem.StoreHit(addr, now); hit {
		return stall
	}
	return t.mem.Store(addr, size, now)
}

func (t *loadTap) Prefetch(addr uint32, guarded bool, now uint64) telemetry.PrefetchOutcome {
	return t.mem.Prefetch(addr, guarded, now)
}

// runCell executes one configuration: a warmup run (during which the JIT
// compiles hot methods with live argument values) followed by a measured
// run, mirroring vm.Measure's methodology, and fingerprints the measured
// run's architectural state.
func runCell(build func() *ir.Program, c Configuration, heapBytes uint32, gc heap.GCMode) Cell {
	prog := build()
	// Configurations share machine pointers; run on a private copy so the
	// hardware-model selection of one cell cannot leak into another.
	m := *c.Machine
	m.HWPrefetcher = c.HW
	jo := jit.DefaultOptions(&m, c.Mode)
	jo.Inspect.Interprocedural = c.Interprocedural
	jo.Predict = c.Predict
	if c.Predict == jit.PredictPGO {
		// A PGO cell replays a profile recorded by a dynamic run of the
		// same configuration — on its own private program and heap, like
		// every other cell.
		jo.Profile = recordProfile(build, c, heapBytes, gc)
	}
	v := vm.New(prog, vm.Config{
		Machine: &m, Mode: c.Mode, HeapBytes: heapBytes, GC: gc, JIT: &jo,
	})
	v.Mem.EnableSelfCheck()
	tap := &loadTap{mem: v.Mem}
	v.Engine.SetMem(tap)

	stats, err := v.Run(nil)
	if err == nil {
		// Warmup succeeded: measure the steady (all-compiled) run.
		v.ResetRun()
		tap.loads.reset()
		stats, err = v.Run(nil)
	}
	fp := Fingerprint{
		Result:        stats.Result,
		Checksum:      stats.Checksum,
		LoadDigest:    tap.loads.digest,
		Loads:         tap.loads.count,
		HeapDigest:    RawHeapDigest(v.Heap),
		GraphDigest:   GraphDigest(v.Heap, prog.Universe, stats.Result),
		StaticsDigest: StaticsDigest(prog.Universe),
		GCs:           stats.GCs,
		Trap:          TrapClass(err),
	}
	return Cell{
		Config:        c.Label(),
		Fingerprint:   fp,
		MemViolations: append(v.Mem.Violations(), v.Mem.CheckInvariants()...),
	}
}

// recordProfile runs one dynamic warmup+measure pair of the configuration
// with profile recording on, producing the profile its PGO cell replays.
// A trapping program still records whatever compiled before the trap.
func recordProfile(build func() *ir.Program, c Configuration, heapBytes uint32, gc heap.GCMode) *static.Profile {
	prog := build()
	m := *c.Machine
	m.HWPrefetcher = c.HW
	jo := jit.DefaultOptions(&m, c.Mode)
	jo.Inspect.Interprocedural = c.Interprocedural
	jo.RecordProfile = static.NewProfile()
	v := vm.New(prog, vm.Config{
		Machine: &m, Mode: c.Mode, HeapBytes: heapBytes, GC: gc, JIT: &jo,
	})
	if _, err := v.Run(nil); err == nil {
		v.ResetRun()
		_, _ = v.Run(nil)
	}
	return jo.RecordProfile
}

// TrapClass maps an engine runtime error onto the oracle's trap
// classes (TrapNone for nil); unrecognized errors map to their own text.
func TrapClass(err error) string {
	switch {
	case err == nil:
		return TrapNone
	case errors.Is(err, interp.ErrNullDeref):
		return TrapNullDeref
	case errors.Is(err, interp.ErrBounds):
		return TrapBounds
	case errors.Is(err, interp.ErrNegativeSize):
		return TrapNegativeSize
	case errors.Is(err, ir.ErrDivZero):
		return TrapDivZero
	case errors.Is(err, interp.ErrBadValue), errors.Is(err, ir.ErrBadOperand):
		return TrapBadOperand
	case errors.Is(err, interp.ErrStackOverflow):
		return TrapStackOverflow
	case errors.Is(err, interp.ErrNoMethod):
		return TrapNoMethod
	case errors.Is(err, heap.ErrOutOfMemory):
		return TrapOutOfMemory
	case errors.Is(err, interp.ErrBudget):
		return TrapBudget
	}
	return err.Error()
}

// CompileLeakCheck verifies the "no side effects" contract of object
// inspection (Sec. 2) directly: it populates a heap by running the
// program once without prefetching, then JIT-compiles every method —
// inter+intra mode, interprocedural inspection on, against the live heap
// — and reports any mutation of the heap bytes or statics. Inspection's
// store hash table and private heap must swallow every write.
func CompileLeakCheck(build func() *ir.Program, m *arch.Machine, heapBytes uint32, gc heap.GCMode) []string {
	prog := build()
	v := vm.New(prog, vm.Config{Machine: m, Mode: jit.Baseline, HeapBytes: heapBytes, GC: gc})
	if _, err := v.Run(nil); err != nil {
		// A trapping program still leaves a populated heap to inspect.
		_ = err
	}
	before := RawHeapDigest(v.Heap)
	beforeStatics := StaticsDigest(prog.Universe)

	jo := jit.DefaultOptions(m, jit.InterIntra)
	jo.Inspect.Interprocedural = true
	var leaks []string
	for _, mth := range prog.Methods() {
		args := make([]value.Value, len(mth.Params))
		for i, k := range mth.Params {
			if k == value.KindRef {
				args[i] = value.Null
			} else {
				args[i] = value.Value{K: k}
			}
		}
		jit.Compile(prog, v.Heap, mth, args, jo)
		if got := RawHeapDigest(v.Heap); got != before {
			leaks = append(leaks, fmt.Sprintf(
				"inspection leak: compiling %s changed heap bytes (%016x -> %016x)",
				mth.QName(), before, got))
			before = got
		}
		if got := StaticsDigest(prog.Universe); got != beforeStatics {
			leaks = append(leaks, fmt.Sprintf(
				"inspection leak: compiling %s changed statics (%016x -> %016x)",
				mth.QName(), beforeStatics, got))
			beforeStatics = got
		}
	}
	return leaks
}
