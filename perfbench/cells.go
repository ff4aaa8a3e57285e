package main

import (
	"fmt"

	"strider/internal/core/jit"
	"strider/internal/harness"
	"strider/internal/workloads"
)

// cell is one experiment cell an op runs: a workload analog at a size on
// a machine under a compilation mode, in the request vocabulary.
type cell struct {
	Workload string
	Size     string // "small" or "full"
	Machine  string // "Pentium4" or "AthlonMP"
	Mode     string // "baseline", "inter" or "inter+intra"
}

func (c cell) String() string {
	return c.Workload + "/" + c.Size + "/" + c.Machine + "/" + c.Mode
}

// body is the cell's /run request body, written here rather than by the
// service's own Job type so that a change to that type can neither move
// nor break the benchmark.
func (c cell) body() []byte {
	return []byte(fmt.Sprintf(`{"workload":%q,"size":%q,"machine":%q,"mode":%q}`,
		c.Workload, c.Size, c.Machine, c.Mode))
}

// spec is the cell in the harness vocabulary, exactly as cmd/experiments
// builds it (the workload's own heap size, every other field defaulted).
func (c cell) spec() harness.Spec {
	w, err := workloads.ByName(c.Workload)
	if err != nil {
		panic(err) // the cell tables below only name registered workloads
	}
	size := workloads.SizeSmall
	if c.Size == "full" {
		size = workloads.SizeFull
	}
	return harness.Spec{Workload: c.Workload, Size: size, Machine: c.Machine, Mode: jitMode(c.Mode), HeapBytes: w.HeapBytes}
}

func jitMode(mode string) jit.Mode {
	switch mode {
	case "baseline":
		return jit.Baseline
	case "inter":
		return jit.Inter
	}
	return jit.InterIntra
}

var (
	machines = []string{"Pentium4", "AthlonMP"}
	modes    = []string{"baseline", "inter", "inter+intra"}

	// smallAnalogs are the twelve Table 3 analogs in Table 3 order.
	smallAnalogs = []string{"compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack",
		"euler", "moldyn", "montecarlo", "raytracer", "search"}

	// fullAnalogs are the full-size cells serve-exec rotates over: the
	// analogs whose pooled runs take about 75-300 ms each. db, at about
	// 2 s per run, would make one cell most of the workload.
	fullAnalogs = []string{"jess", "euler", "mtrt", "compress", "jack"}
)

// batteryCells are the 72 distinct executions of the small experiment
// battery (Figs. 6-11, Table 3): 12 analogs x 2 machines x 3 modes.
func batteryCells() []cell {
	var cells []cell
	for _, w := range smallAnalogs {
		for _, m := range machines {
			for _, mode := range modes {
				cells = append(cells, cell{w, "small", m, mode})
			}
		}
	}
	return cells
}

// serveExecCells are the ten full-size inter+intra cells of serve-exec.
func serveExecCells() []cell {
	var cells []cell
	for _, w := range fullAnalogs {
		for _, m := range machines {
			cells = append(cells, cell{w, "full", m, "inter+intra"})
		}
	}
	return cells
}

// pinnedChecksums are the architectural result checksums, by workload
// and size. Prefetching, the memory model, the JIT and the host
// execution tier cannot change a program's result (the differential
// oracle's contract), so one checksum covers every machine and mode.
var pinnedChecksums = map[string]uint64{
	"compress/small":   0xa7fcdb12b0e28318,
	"db/small":         0x05ba2638b23ab26b,
	"euler/small":      0xa6b19960faaf8c44,
	"jack/small":       0x6a0af167df8664be,
	"javac/small":      0x47fe0d7eaf8e51e3,
	"jess/small":       0xd31b4f98d8cab425,
	"moldyn/small":     0x758216aeabf27b5c,
	"montecarlo/small": 0xce11ba5b0f543c1f,
	"mpegaudio/small":  0x202a6db55f13f27f,
	"mtrt/small":       0x47fe0d7eaf8e51e3,
	"raytracer/small":  0xce5c35696a07865e,
	"search/small":     0xe1f805f384286577,

	"compress/full": 0x02a6db4fbd31f456,
	"euler/full":    0xf8198d3a5fa9b554,
	"jack/full":     0x96dc11a21bac3092,
	"jess/full":     0x499e095f4c9c6907,
	"mtrt/full":     0x47fe0d7eaf8e51e3,
}

// pinned returns the cell's pinned checksum.
func (c cell) pinned() uint64 { return pinnedChecksums[c.Workload+"/"+c.Size] }
