package server

import (
	"fmt"

	"strider/internal/arch"
	"strider/internal/harness"
	"strider/internal/heap"
	"strider/internal/memsim"
	"strider/internal/oracle"
	"strider/internal/telemetry"
	"strider/internal/vm"
)

// Response is the /run result body. Everything except the per-request
// fields (Cached, Pooled, WallNs, Explain) is a deterministic function of
// the cell: the integration suite pins it byte-identical across fresh,
// pooled, cached, and deduplicated serving paths against a serial
// harness.RunAll.
type Response struct {
	// The canonical cell, echoed in the request vocabulary (a Response's
	// cell fields round-trip as a Job).
	Workload string `json:"workload"`
	Size     string `json:"size"`
	Machine  string `json:"machine"`
	Mode     string `json:"mode"`
	GC       string `json:"gc"`
	// HW is the hardware-prefetcher model actually simulated (the
	// machine's own model when the job left hw empty).
	HW string `json:"hw"`
	// Predict is the prediction source the cell ran under. Omitted for the
	// dynamic default so responses on the classic serving path stay
	// byte-for-byte (and allocation-for-allocation) what they always were;
	// present as "static" or "pgo" when the job opted in.
	Predict string `json:"predict,omitempty"`
	// Key is the engine's canonical cell key (cache/pool/scheduling identity).
	Key string `json:"key"`

	// Checksum is the run's result checksum (%016x), present on success.
	Checksum string `json:"checksum,omitempty"`
	// Stats is the measured run's full statistics, present on success.
	Stats *vm.RunStats `json:"stats,omitempty"`
	// Trap and Err describe a deterministic program trap (the job executed;
	// the simulated program faulted). Trap is the oracle's trap class.
	Trap string `json:"trap,omitempty"`
	Err  string `json:"error,omitempty"`

	// Explain is the decision-trace log, present only with ?explain=1.
	Explain string `json:"explain,omitempty"`

	// Per-request serving metadata — excluded from determinism comparisons.
	Cached bool  `json:"cached"`
	Pooled bool  `json:"pooled"`
	WallNs int64 `json:"wall_ns"`
}

// Deterministic returns the response with per-request serving metadata
// zeroed — the part of the payload that must be byte-identical however
// the cell was served.
func (r Response) Deterministic() Response {
	r.Cached, r.Pooled, r.WallNs, r.Explain = false, false, 0, ""
	return r
}

// executor runs jobs on fresh or recycled VMs. Fresh VMs come from the
// server's private harness Engine, whose profile cache serves PGO jobs.
type executor struct {
	pool   *vmPool
	engine *harness.Engine
}

// modeSpelling maps jit.Mode strings back to the request vocabulary.
func modeSpelling(s harness.Spec) string {
	switch s.Mode.String() {
	case "BASELINE":
		return "baseline"
	case "INTER":
		return "inter"
	}
	return "inter+intra"
}

func gcSpelling(s harness.Spec) string {
	if s.GC == heap.GCMarkSweepFreeList {
		return "freelist"
	}
	return "compact"
}

// predictSpelling resolves the prediction source stamped on a response:
// empty for the dynamic default (the field is omitted entirely), the
// job's own spelling otherwise.
func predictSpelling(s harness.Spec) string {
	if s.Predict == "dynamic" {
		return ""
	}
	return s.Predict
}

// hwSpelling resolves the model a cell simulates: the spec's explicit
// selection, else the machine's own default.
func hwSpelling(s harness.Spec) string {
	if s.HW != "" {
		return s.HW
	}
	if m := arch.ByName(s.Machine); m != nil && m.HWPrefetcher != "" {
		return m.HWPrefetcher
	}
	return memsim.DefaultHWModel
}

// run executes one cell, whose canonical key the caller has already
// computed, and renders its deterministic response. The serving-path
// metadata (Pooled) is stamped here; Cached/WallNs belong to the layer
// above.
func (e *executor) run(spec harness.Spec, key string, explain bool) *Response {
	resp := &Response{
		Workload: spec.Workload,
		Size:     spec.Size.String(),
		Machine:  spec.Machine,
		Mode:     modeSpelling(spec),
		GC:       gcSpelling(spec),
		HW:       hwSpelling(spec),
		Predict:  predictSpelling(spec),
		Key:      key,
	}

	if explain {
		// Explain runs bypass the pool: the decision trace needs the
		// compile-time events, which a recycled VM already spent.
		tr := telemetry.NewTrace()
		v, err := e.engine.NewVM(spec, tr)
		if err != nil {
			return respondError(resp, err)
		}
		stats, err := v.Measure(nil, spec.Warmups)
		v.FlushTelemetry()
		if err != nil {
			resp.Explain = tr.DecisionLog()
			return respondError(resp, err)
		}
		resp.Explain = tr.DecisionLog()
		return respondStats(resp, stats)
	}

	if pv := e.pool.get(resp.Key); pv != nil {
		pv.v.ResetRun()
		stats, err := pv.v.Run(nil)
		pv.v.FlushTelemetry()
		if e.guard(resp.Key, pv, stats, err) {
			resp.Pooled = true
			if err != nil {
				return respondError(resp, err)
			}
			return respondStats(resp, stats)
		}
		// Poisoned: the recycled VM did not reproduce the cell's canonical
		// outcome. Fall through to a fresh execution.
	}

	v, err := e.engine.NewVM(spec, nil)
	if err != nil {
		return respondError(resp, err)
	}
	stats, err := v.Measure(nil, spec.Warmups)
	v.FlushTelemetry()
	if err != nil {
		e.pool.put(resp.Key, &pooledVM{v: v, errText: err.Error()})
		return respondError(resp, err)
	}
	e.pool.put(resp.Key, &pooledVM{v: v, stats: stats})
	return respondStats(resp, stats)
}

// guard is the reset-correctness check: a recycled VM must reproduce the
// cell's canonical RunStats exactly (or, for trap cells, the canonical
// error). On success the VM goes back in the pool; on mismatch it is
// discarded and the poisoning is counted.
func (e *executor) guard(key string, pv *pooledVM, stats vm.RunStats, err error) bool {
	ok := false
	if err != nil {
		ok = pv.errText != "" && err.Error() == pv.errText
	} else {
		ok = pv.errText == "" && stats == pv.stats
	}
	if !ok {
		e.pool.poisoned.Add(1)
		return false
	}
	e.pool.put(key, pv)
	return true
}

func respondStats(resp *Response, stats vm.RunStats) *Response {
	s := stats
	resp.Stats = &s
	resp.Checksum = fmt.Sprintf("%016x", stats.Checksum)
	resp.HW = stats.HWModel
	return resp
}

func respondError(resp *Response, err error) *Response {
	resp.Err = err.Error()
	resp.Trap = oracle.TrapClass(err)
	return resp
}
