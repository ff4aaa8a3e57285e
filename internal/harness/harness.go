// Package harness runs the paper's experiments: it executes workloads on
// configured VMs (warmup run + measured run, mirroring the paper's
// best-run-under-continuous-execution methodology) and regenerates every
// table and figure of the evaluation section.
//
// Everything that runs a cell runs against an Engine, which holds the
// run defaults, the telemetry recorder, the grid's worker count and
// progress writer, and the result and PGO profile caches. The package
// itself keeps no state: two Engines in one process share nothing.
//
// Every run is an independent, deterministic simulation, so an Engine
// schedules batches of runs across a bounded worker pool (see grid.go)
// and deduplicates concurrent requests for the same cell through its
// singleflight result cache: N callers asking for the same Spec share one
// VM execution.
package harness

import (
	"fmt"
	"io"
	"sync"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/flight"
	"strider/internal/heap"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/progfuzz"
	"strider/internal/static"
	"strider/internal/telemetry"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// Spec identifies one experimental run.
type Spec struct {
	Workload string
	Size     workloads.Size
	Machine  string // "Pentium4" or "AthlonMP"
	Mode     jit.Mode
	GC       heap.GCMode

	// Warmups is the number of discarded runs before the measured run
	// (default 1 — enough for every method to be JIT-compiled).
	Warmups int
	// HeapBytes overrides the workload's heap hint when non-zero.
	HeapBytes uint32
	// JIT overrides the paper-default compiler options when non-nil.
	JIT *jit.Options
	// HW selects the hardware-prefetcher model memsim simulates. Empty
	// means the Engine's default (Engine.HW), which itself defaults to the
	// machine's model (the stream detector).
	HW string
	// Predict selects the prediction source feeding prefetch decisions:
	// "dynamic" (the paper's object inspection), "static" (the offline
	// analyzer), or "pgo" (replay a recorded profile; the harness builds
	// and caches the profile from a dynamic run of the same cell). Empty
	// means the Engine's default (Engine.Predict), which defaults to
	// dynamic.
	Predict string
}

func (s Spec) withDefaults() Spec {
	if s.Machine == "" {
		s.Machine = "Pentium4"
	}
	if s.Warmups == 0 {
		s.Warmups = 1
	}
	if s.Predict == "" {
		s.Predict = "dynamic"
	}
	return s
}

func (s Spec) key() string {
	j := ""
	if s.JIT != nil {
		j = fmt.Sprintf("|c%d|k%d|t%.2f|st%d|ip%v|ac%v",
			s.JIT.C, s.JIT.Inspect.Iterations, s.JIT.Threshold,
			s.JIT.SmallTrip, s.JIT.Inspect.Interprocedural, s.JIT.AdaptiveC)
	}
	if s.HW != "" {
		j += "|hw:" + s.HW
	}
	// Dynamic prediction is the identity every pre-existing key encoded;
	// only the new sources extend the key.
	if s.Predict != "" && s.Predict != "dynamic" {
		j += "|pr:" + s.Predict
	}
	return fmt.Sprintf("%s|%s|%s|%s|gc%d|w%d|h%d%s",
		s.Workload, s.Size, s.Machine, s.Mode, s.GC, s.Warmups, s.HeapBytes, j)
}

// String renders the cell for progress lines and error messages.
func (s Spec) String() string {
	return fmt.Sprintf("%s/%s/%s/%s", s.Workload, s.Size, s.Machine, s.Mode)
}

// Canonical returns the spec with the static defaults applied: machine,
// warmup count and prediction source. It reads no Engine, so a spec that
// leaves HW or Predict empty is canonical for an Engine without those
// defaults.
func (s Spec) Canonical() Spec { return s.withDefaults() }

// Key returns the canonical cache key for the spec, static defaults
// applied. Two specs with the same key are the same cell: an Engine's
// result cache and the execution server's result cache, VM pool and run
// queue all key on this identity.
func (s Spec) Key() string { return s.withDefaults().key() }

// Engine runs experiment cells. It owns the defaults applied to specs
// that leave HW or Predict empty, the telemetry Recorder, the grid worker
// count and progress writer, and the caches of results and PGO profiles
// with their counters. Two Engines share nothing. The zero value is an
// engine with the built-in defaults; set the exported fields before first
// use, and do not copy an Engine after first use.
type Engine struct {
	// HW is the hardware-prefetcher model for specs that leave HW empty
	// (the experiments CLI's -hw flag). Empty keeps each machine's own
	// model, the stream detector. An unknown model fails every such run;
	// CheckHW validates a name up front.
	HW string
	// Predict is the prediction source for specs that leave Predict empty
	// (the experiments CLI's -predict flag). Empty means dynamic
	// inspection. CheckPredict validates a name up front.
	Predict string
	// Recorder, when non-nil, receives the telemetry of every fresh VM
	// execution (compile/loop/decision/site events) and one CellEvent per
	// grid cell. It must be safe for concurrent use: grid workers all emit
	// into it. Cached or deduplicated cells emit only their CellEvent: the
	// compile-time events of a spec are recorded once, by the execution
	// that actually ran.
	Recorder telemetry.Recorder
	// Parallel is the worker count of grids that do not set their own;
	// 0 uses GOMAXPROCS.
	Parallel int
	// Progress, when non-nil, receives one line per completed grid cell
	// (cell name, wall-clock, running count). Progress goes to its own
	// writer precisely so that table and figure output stays
	// byte-identical at every parallelism level.
	Progress io.Writer

	results  flight.Cache[string, vm.RunStats]
	profiles flight.Cache[string, *static.Profile]
	// printMu serializes progress lines: concurrent grids on one engine
	// (the differ, nested figure batches) share its writer, and
	// unserialized writes from two worker pools would interleave lines.
	printMu sync.Mutex
}

// CheckHW returns an error for a hardware-prefetcher model memsim does
// not know. Empty is valid: the machine's own model.
func CheckHW(name string) error {
	if !memsim.ValidHWModel(name) {
		return fmt.Errorf("harness: unknown hardware-prefetcher model %q (valid: %v)",
			name, memsim.HWModels())
	}
	return nil
}

// CheckPredict returns an error for a prediction source jit does not
// know. Empty is valid: dynamic inspection.
func CheckPredict(name string) error {
	if _, err := jit.ParsePredict(name); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return nil
}

// canonical returns the spec with the engine's HW and Predict defaults
// and then the static defaults applied: the cell the engine runs and
// caches for s.
func (e *Engine) canonical(s Spec) Spec {
	if s.HW == "" {
		s.HW = e.HW
	}
	if s.Predict == "" {
		s.Predict = e.Predict
	}
	return s.withDefaults()
}

// Counters reports how the engine satisfied requests: fresh VM
// executions, completed-result cache hits, requests that joined an
// execution already in flight (singleflight), and PGO profile-cache hits
// and misses (a miss is one profiling run; joining a profiling run in
// flight counts as a hit).
type Counters struct {
	Executions    uint64
	CacheHits     uint64
	DedupHits     uint64
	ProfileHits   uint64
	ProfileMisses uint64
}

// Counters returns a snapshot of the engine's request counters.
func (e *Engine) Counters() Counters {
	r, p := e.results.Stats(), e.profiles.Stats()
	return Counters{
		Executions:    r.Misses,
		CacheHits:     r.Hits,
		DedupHits:     r.Joins,
		ProfileHits:   p.Hits + p.Joins,
		ProfileMisses: p.Misses,
	}
}

// Run executes a spec, or returns the engine's cached result for it.
// Concurrent callers with the same spec share a single VM execution.
func (e *Engine) Run(s Spec) (vm.RunStats, error) {
	stats, _, err := e.run(s)
	return stats, err
}

// run is Run plus a flag reporting whether this call performed the
// execution itself (false: served from cache or joined an in-flight run).
func (e *Engine) run(s Spec) (vm.RunStats, bool, error) {
	s = e.canonical(s)
	return e.results.Do(s.key(), func() (vm.RunStats, error) { return e.execute(s) })
}

// execute performs one isolated run: a fresh program build, a fresh VM,
// and (inside vm.New) a fresh memory simulation — cells share nothing, so
// any number may run concurrently.
func (e *Engine) execute(s Spec) (vm.RunStats, error) {
	v, err := e.NewVM(s, e.Recorder)
	if err != nil {
		return vm.RunStats{}, err
	}
	stats, err := v.Measure(nil, s.Warmups)
	if err != nil {
		return vm.RunStats{}, fmt.Errorf("harness: %s/%s/%s: %w", s.Workload, s.Machine, s.Mode, err)
	}
	v.FlushTelemetry()
	return stats, nil
}

// NewVM constructs the fresh VM one execution of the spec uses: the
// spec's program — a registered workload built at the spec's size, or
// the progfuzz program a "fuzz:<seed>" workload names — on the configured
// machine, heap, and JIT options, with rec (which may be nil) threaded
// through as the VM's telemetry recorder. A PGO spec takes its profile
// from the engine's profile cache. Run, Explain, and the execution
// server's pooled executor all build VMs here, so a cell means exactly
// the same simulation everywhere. The spec should be Canonical; NewVM
// applies no defaults.
func (e *Engine) NewVM(s Spec, rec telemetry.Recorder) (*vm.VM, error) {
	seed, fuzz := progfuzz.Seed(s.Workload)
	heapBytes := s.HeapBytes
	var w *workloads.Workload
	if !fuzz {
		var err error
		if w, err = workloads.ByName(s.Workload); err != nil {
			return nil, err
		}
		if heapBytes == 0 {
			heapBytes = w.HeapBytes
		}
	}
	m := arch.ByName(s.Machine)
	if m == nil {
		return nil, fmt.Errorf("harness: unknown machine %q", s.Machine)
	}
	m, err := machineWithHW(m, s.HW)
	if err != nil {
		return nil, err
	}
	var prog *ir.Program
	if fuzz {
		prog = progfuzz.Program(seed)
	} else {
		prog = w.Build(s.Size)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", s.Workload, err)
	}
	var jitOpts *jit.Options
	if s.JIT != nil {
		o := *s.JIT
		o.Mode = s.Mode
		o.Machine = m
		jitOpts = &o
	}
	ps, err := jit.ParsePredict(s.Predict)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if ps != jit.PredictDynamic {
		if jitOpts == nil {
			o := jit.DefaultOptions(m, s.Mode)
			jitOpts = &o
		}
		jitOpts.Predict = ps
		if ps == jit.PredictPGO {
			prof, err := e.ProfileFor(s)
			if err != nil {
				return nil, err
			}
			jitOpts.Profile = prof
		}
	}
	return vm.New(prog, vm.Config{
		Machine:   m,
		Mode:      s.Mode,
		HeapBytes: heapBytes,
		GC:        s.GC,
		JIT:       jitOpts,
		Recorder:  rec,
	}), nil
}

// Explain runs one spec on a fresh, uncached VM with a private trace
// recorder and returns the human-readable per-loop decision log: every
// JIT compilation, inspection verdict, and Sec. 3.3 filter decision, plus
// the measured run's per-site prefetch attribution. The result cache is
// bypassed (and left untouched) so the log is always complete.
func (e *Engine) Explain(s Spec) (string, error) {
	s = e.canonical(s)
	tr := telemetry.NewTrace()
	v, err := e.NewVM(s, tr)
	if err != nil {
		return "", err
	}
	if _, err := v.Measure(nil, s.Warmups); err != nil {
		return "", fmt.Errorf("harness: %s/%s/%s: %w", s.Workload, s.Machine, s.Mode, err)
	}
	v.FlushTelemetry()
	return tr.DecisionLog(), nil
}

// machineWithHW applies a spec's hardware-prefetcher selection to the
// machine. Registry machines are shared pointers, so a non-empty
// selection runs on a private copy; an empty selection returns the
// machine untouched (its own default model).
func machineWithHW(m *arch.Machine, hw string) (*arch.Machine, error) {
	if err := CheckHW(hw); err != nil {
		return nil, err
	}
	if hw == "" {
		return m, nil
	}
	mc := *m
	mc.HWPrefetcher = hw
	return &mc, nil
}

// SpeedupPct returns the percentage speedup of opt over base
// (positive = faster, the paper's Figure 6/7 metric).
func SpeedupPct(base, opt vm.RunStats) float64 {
	if opt.Cycles == 0 {
		return 0
	}
	return 100 * (float64(base.Cycles)/float64(opt.Cycles) - 1)
}

// Speedups runs BASELINE, INTER, and INTER+INTRA for one workload on one
// machine and returns (interPct, interIntraPct). The three cells run as
// one batch across the worker pool.
func (e *Engine) Speedups(name, machine string, size workloads.Size) (float64, float64, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return 0, 0, err
	}
	stats, err := e.runBatch(modeSpecs(w, machine, size))
	if err != nil {
		return 0, 0, err
	}
	return SpeedupPct(stats[0], stats[1]), SpeedupPct(stats[0], stats[2]), nil
}

// modeSpecs builds the three evaluation cells (BASELINE, INTER,
// INTER+INTRA) of one workload on one machine.
func modeSpecs(w *workloads.Workload, machine string, size workloads.Size) []Spec {
	specs := make([]Spec, 0, 3)
	for _, mode := range []jit.Mode{jit.Baseline, jit.Inter, jit.InterIntra} {
		specs = append(specs, Spec{Workload: w.Name, Size: size, Machine: machine, Mode: mode, HeapBytes: w.HeapBytes})
	}
	return specs
}
