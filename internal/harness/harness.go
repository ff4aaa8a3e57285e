// Package harness runs the paper's experiments: it executes workloads on
// configured VMs (warmup run + measured run, mirroring the paper's
// best-run-under-continuous-execution methodology), caches results within
// the process, and regenerates every table and figure of the evaluation
// section.
//
// Every run is an independent, deterministic simulation, so the harness
// schedules batches of runs across a bounded worker pool (see grid.go) and
// deduplicates concurrent requests for the same cell with singleflight
// semantics layered on the result cache: N callers asking for the same Spec
// share one VM execution.
package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/heap"
	"strider/internal/memsim"
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
	// means the process default (SetHWModel), which itself defaults to the
	// machine's model (the stream detector).
	HW string
	// Predict selects the prediction source feeding prefetch decisions:
	// "dynamic" (the paper's object inspection), "static" (the offline
	// analyzer), or "pgo" (replay a recorded profile; the harness builds
	// and caches the profile from a dynamic run of the same cell). Empty
	// means the process default (SetPredict), which defaults to dynamic.
	Predict string
}

func (s Spec) withDefaults() Spec {
	if s.Machine == "" {
		s.Machine = "Pentium4"
	}
	if s.Warmups == 0 {
		s.Warmups = 1
	}
	if s.HW == "" {
		s.HW = HWModel()
	}
	if s.Predict == "" {
		s.Predict = PredictSource()
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

// Canonical returns the spec with the engine defaults applied (machine,
// warmup count, process-wide hardware-prefetcher model).
func (s Spec) Canonical() Spec { return s.withDefaults() }

// Key returns the engine's canonical cache key for the spec, defaults
// applied. Two specs with the same key are the same cell: the result
// cache, the singleflight layer, and the execution server's shard and
// pool maps all hash this identity.
func (s Spec) Key() string { return s.withDefaults().key() }

// call is one in-flight execution other callers of the same key block on.
type call struct {
	done  chan struct{}
	stats vm.RunStats
	err   error
}

var (
	cacheMu  sync.Mutex
	cache    = map[string]vm.RunStats{}
	inflight = map[string]*call{}

	recorderMu sync.Mutex
	recorder   telemetry.Recorder

	hwMu      sync.Mutex
	hwDefault string

	predictMu      sync.Mutex
	predictDefault string
)

// SetHWModel installs the process-wide default hardware-prefetcher model
// applied to specs that leave HW empty (the experiments CLI's -hw flag).
// Empty restores the built-in default (the machine's stream detector).
// Returns an error for a model memsim does not know.
func SetHWModel(name string) error {
	if !memsim.ValidHWModel(name) {
		return fmt.Errorf("harness: unknown hardware-prefetcher model %q (valid: %v)",
			name, memsim.HWModels())
	}
	hwMu.Lock()
	defer hwMu.Unlock()
	hwDefault = name
	return nil
}

// HWModel returns the process-wide default hardware-prefetcher model
// ("" when unset).
func HWModel() string {
	hwMu.Lock()
	defer hwMu.Unlock()
	return hwDefault
}

// SetPredict installs the process-wide default prediction source applied
// to specs that leave Predict empty (the experiments CLI's -predict
// flag). Empty restores the built-in default (dynamic inspection).
// Returns an error for a source jit does not know.
func SetPredict(name string) error {
	if _, err := jit.ParsePredict(name); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	predictMu.Lock()
	defer predictMu.Unlock()
	predictDefault = name
	return nil
}

// PredictSource returns the process-wide default prediction source
// ("" when unset).
func PredictSource() string {
	predictMu.Lock()
	defer predictMu.Unlock()
	return predictDefault
}

// SetRecorder installs a process-wide telemetry Recorder: every fresh VM
// execution threads it through the VM (compile/loop/decision/site events)
// and every grid cell reports a CellEvent. nil disables telemetry. The
// Recorder must be safe for concurrent use — grid workers all emit into
// it. Cached or deduplicated cells emit only their CellEvent: the
// compile-time events of a spec are recorded once, by the execution that
// actually ran.
func SetRecorder(r telemetry.Recorder) {
	recorderMu.Lock()
	defer recorderMu.Unlock()
	recorder = r
}

// Recorder returns the installed process-wide recorder (nil when unset).
func Recorder() telemetry.Recorder {
	recorderMu.Lock()
	defer recorderMu.Unlock()
	return recorder
}

// Counters reports how the engine satisfied Run requests since the last
// ClearCache: fresh VM executions, completed-result cache hits, requests
// that joined an execution already in flight (singleflight), and PGO
// profile-cache hits and misses (a miss is one profiling run).
type Counters struct {
	Executions    uint64
	CacheHits     uint64
	DedupHits     uint64
	ProfileHits   uint64
	ProfileMisses uint64
}

var counters struct {
	executions    atomic.Uint64
	cacheHits     atomic.Uint64
	dedupHits     atomic.Uint64
	profileHits   atomic.Uint64
	profileMisses atomic.Uint64
}

// EngineCounters returns a snapshot of the engine's request counters.
func EngineCounters() Counters {
	return Counters{
		Executions:    counters.executions.Load(),
		CacheHits:     counters.cacheHits.Load(),
		DedupHits:     counters.dedupHits.Load(),
		ProfileHits:   counters.profileHits.Load(),
		ProfileMisses: counters.profileMisses.Load(),
	}
}

// ClearCache drops all cached results (including cached PGO profiles) and
// resets the engine counters (tests use it for isolation). In-flight
// executions are unaffected: they publish into the new cache when they
// complete.
func ClearCache() {
	cacheMu.Lock()
	cache = map[string]vm.RunStats{}
	counters.executions.Store(0)
	counters.cacheHits.Store(0)
	counters.dedupHits.Store(0)
	counters.profileHits.Store(0)
	counters.profileMisses.Store(0)
	cacheMu.Unlock()
	profMu.Lock()
	profiles = map[string]*static.Profile{}
	profMu.Unlock()
}

// Run executes a spec (or returns the process-cached result). Concurrent
// callers with the same spec share a single underlying VM execution.
func Run(s Spec) (vm.RunStats, error) {
	stats, _, err := run(s)
	return stats, err
}

// run is Run plus a flag reporting whether this call performed the
// execution itself (false: served from cache or joined an in-flight run).
func run(s Spec) (vm.RunStats, bool, error) {
	s = s.withDefaults()
	k := s.key()
	cacheMu.Lock()
	if r, ok := cache[k]; ok {
		counters.cacheHits.Add(1)
		cacheMu.Unlock()
		return r, false, nil
	}
	if c, ok := inflight[k]; ok {
		counters.dedupHits.Add(1)
		cacheMu.Unlock()
		<-c.done
		return c.stats, false, c.err
	}
	c := &call{done: make(chan struct{})}
	inflight[k] = c
	cacheMu.Unlock()

	counters.executions.Add(1)
	c.stats, c.err = execute(s)

	cacheMu.Lock()
	if c.err == nil {
		cache[k] = c.stats
	}
	delete(inflight, k)
	cacheMu.Unlock()
	close(c.done)
	return c.stats, true, c.err
}

// execute performs one isolated run: a fresh program build, a fresh VM,
// and (inside vm.New) a fresh memory simulation — cells share nothing, so
// any number may run concurrently.
func execute(s Spec) (vm.RunStats, error) {
	v, err := NewVM(s, Recorder())
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
// workload's program built at the spec's size on the configured machine,
// heap, and JIT options, with rec (which may be nil) threaded through as
// the VM's telemetry recorder. Run, Explain, and the execution server's
// pooled executor all build VMs here, so a cell means exactly the same
// simulation everywhere. The spec should be Canonical; NewVM does not
// apply defaults.
func NewVM(s Spec, rec telemetry.Recorder) (*vm.VM, error) {
	w, err := workloads.ByName(s.Workload)
	if err != nil {
		return nil, err
	}
	m := arch.ByName(s.Machine)
	if m == nil {
		return nil, fmt.Errorf("harness: unknown machine %q", s.Machine)
	}
	m, err = machineWithHW(m, s.HW)
	if err != nil {
		return nil, err
	}
	heapBytes := s.HeapBytes
	if heapBytes == 0 {
		heapBytes = w.HeapBytes
	}
	prog := w.Build(s.Size)
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
			prof, err := ProfileFor(s)
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
// the measured run's per-site prefetch attribution. The process cache is
// bypassed (and left untouched) so the log is always complete.
func Explain(s Spec) (string, error) {
	s = s.withDefaults()
	tr := telemetry.NewTrace()
	v, err := NewVM(s, tr)
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
	if !memsim.ValidHWModel(hw) {
		return nil, fmt.Errorf("harness: unknown hardware-prefetcher model %q (valid: %v)",
			hw, memsim.HWModels())
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
func Speedups(name, machine string, size workloads.Size) (float64, float64, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return 0, 0, err
	}
	stats, err := runBatch(modeSpecs(w, machine, size))
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
