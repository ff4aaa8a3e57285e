// Package server is the strider execution service: a long-running HTTP/JSON
// front end over the harness engine. Jobs — experiment cells in the
// harness.Spec vocabulary, or progfuzz seed programs — are validated up
// front (the CLI's exit-2 contract, rendered as 4xx responses with
// machine-readable bodies), scheduled on one run queue drained by one
// worker per core, with bounded admission and explicit backpressure (429 +
// Retry-After), served from a bounded singleflight result cache, and
// executed on pooled VMs whose cheap reset (the lazy-backing heap)
// amortizes program build and JIT compilation across requests.
//
// Determinism is the service's contract: a cell's response is byte-identical
// whether it was computed fresh, on a recycled VM, served from the cache,
// or joined to an execution already in flight — the integration suite pins
// service responses against a serial harness.RunAll of the same cells.
package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/harness"
	"strider/internal/heap"
	"strider/internal/memsim"
	"strider/internal/progfuzz"
	"strider/internal/workloads"
)

// FuzzPrefix marks a job workload as a progfuzz seed program instead of a
// registered benchmark analog: "fuzz:<seed>" with a decimal or 0x-hex seed.
const FuzzPrefix = progfuzz.Prefix

// Job is one submitted execution cell. The field vocabulary mirrors
// harness.Spec; enumerated fields take the CLI flag spellings
// (mode "inter+intra", size "small", gc "compact", hw "ipstride").
type Job struct {
	// Workload is a registered benchmark analog ("jess", "db", ...) or a
	// progfuzz seed program ("fuzz:0x7"). Required.
	Workload string `json:"workload"`
	// Size is "small" (default) or "full".
	Size string `json:"size,omitempty"`
	// Machine is "Pentium4" (default) or "AthlonMP".
	Machine string `json:"machine,omitempty"`
	// Mode is "baseline", "inter", or "inter+intra" (default).
	Mode string `json:"mode,omitempty"`
	// GC is "compact" (default) or "freelist".
	GC string `json:"gc,omitempty"`
	// HW selects the simulated hardware-prefetcher model; empty uses the
	// machine's own model (the stream detector).
	HW string `json:"hw,omitempty"`
	// Predict selects the prediction source feeding prefetch decisions:
	// "dynamic" (default — run-time object inspection), "static" (the
	// offline analyzer), or "pgo" (replay of a recorded profile; the
	// service builds and caches one profiling run per cell).
	Predict string `json:"predict,omitempty"`
	// Warmups is the number of discarded runs before the measured run
	// (default 1, the harness default).
	Warmups int `json:"warmups,omitempty"`
	// HeapBytes overrides the workload's simulated heap size when non-zero.
	HeapBytes uint32 `json:"heap_bytes,omitempty"`
}

// Error is the machine-readable 4xx body: what was wrong, which field, and
// the valid values — the service rendering of the CLI's exit-2 contract.
type Error struct {
	Err   string   `json:"error"`
	Field string   `json:"field,omitempty"`
	Got   string   `json:"got,omitempty"`
	Valid []string `json:"valid,omitempty"`
}

func (e *Error) Error() string { return e.Err }

func fieldError(field, got string, valid []string) *Error {
	return &Error{
		Err:   fmt.Sprintf("unknown %s %q (valid: %s)", field, got, strings.Join(valid, ", ")),
		Field: field,
		Got:   got,
		Valid: valid,
	}
}

// validWorkloads enumerates the accepted workload spellings: every
// registered analog plus the fuzz:<seed> form.
func validWorkloads() []string {
	names := workloads.Names()
	sort.Strings(names)
	return append(names, FuzzPrefix+"<seed>")
}

var (
	validSizes = []string{"small", "full"}
	validModes = []string{"baseline", "inter", "inter+intra"}
	validGCs   = []string{"compact", "freelist"}
)

func machineNames() []string {
	var names []string
	for _, m := range arch.Machines() {
		names = append(names, m.Name)
	}
	return names
}

// FuzzSeed reports whether the job is a progfuzz program and, if so, its
// seed. An unparsable seed is reported by Validate, not here.
func (j Job) FuzzSeed() (uint64, bool) { return progfuzz.Seed(j.Workload) }

// Validate checks every enumerated field up front and returns a
// machine-readable *Error naming the offending field and the valid set —
// nothing is scheduled for an invalid job.
func (j Job) Validate() *Error {
	if j.Workload == "" {
		return &Error{Err: "missing workload", Field: "workload", Valid: validWorkloads()}
	}
	if strings.HasPrefix(j.Workload, FuzzPrefix) {
		if _, ok := j.FuzzSeed(); !ok {
			return &Error{
				Err:   fmt.Sprintf("bad fuzz seed %q (want %s<decimal or 0x-hex uint64>)", j.Workload, FuzzPrefix),
				Field: "workload",
				Got:   j.Workload,
				Valid: validWorkloads(),
			}
		}
	} else if _, err := workloads.ByName(j.Workload); err != nil {
		return fieldError("workload", j.Workload, validWorkloads())
	}
	switch j.Size {
	case "", "small", "full":
	default:
		return fieldError("size", j.Size, validSizes)
	}
	if j.Machine != "" && arch.ByName(j.Machine) == nil {
		return fieldError("machine", j.Machine, machineNames())
	}
	switch j.Mode {
	case "", "baseline", "inter", "inter+intra":
	default:
		return fieldError("mode", j.Mode, validModes)
	}
	switch j.GC {
	case "", "compact", "freelist":
	default:
		return fieldError("gc", j.GC, validGCs)
	}
	if !memsim.ValidHWModel(j.HW) {
		return fieldError("hw", j.HW, memsim.HWModels())
	}
	if _, err := jit.ParsePredict(j.Predict); err != nil {
		return fieldError("predict", j.Predict, jit.PredictSources())
	}
	if j.Warmups < 0 {
		return &Error{
			Err:   fmt.Sprintf("negative warmups %d", j.Warmups),
			Field: "warmups",
			Got:   strconv.Itoa(j.Warmups),
		}
	}
	return nil
}

// Spec converts a validated job into the harness cell it names, defaults
// applied. For fuzz jobs the Workload field carries the fuzz:<seed> form —
// the executor resolves the program, but the spec still provides the
// canonical cell key and the machine/mode/heap configuration.
func (j Job) Spec() harness.Spec {
	s := harness.Spec{
		Workload:  j.Workload,
		Machine:   j.Machine,
		HW:        j.HW,
		Predict:   j.Predict,
		Warmups:   j.Warmups,
		HeapBytes: j.HeapBytes,
	}
	if j.Size == "full" {
		s.Size = workloads.SizeFull
	}
	switch j.Mode {
	case "baseline":
		s.Mode = jit.Baseline
	case "inter":
		s.Mode = jit.Inter
	default:
		s.Mode = jit.InterIntra
	}
	if j.GC == "freelist" {
		s.GC = heap.GCMarkSweepFreeList
	}
	if _, ok := j.FuzzSeed(); ok && s.HeapBytes == 0 {
		// Fuzz programs carry no workload heap hint; pin the differ's
		// default so the cell is fully determined by its key.
		s.HeapBytes = fuzzHeapBytes
	}
	return s
}

// fuzzHeapBytes is the default simulated heap for fuzz-seed jobs.
const fuzzHeapBytes = 16 << 20

// Key returns the canonical cell identity of the job — the harness engine
// key the cache and pool are indexed by and the scheduler serializes on.
func (j Job) Key() string { return j.Spec().Key() }
