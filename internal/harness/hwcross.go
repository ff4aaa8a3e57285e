package harness

import (
	"fmt"
	"strings"

	"strider/internal/core/jit"
	"strider/internal/memsim"
	"strider/internal/workloads"
)

// HWCrossRow is one (machine, hardware model, workload) group of the
// software×hardware cross-product: the software-prefetching speedups
// measured with that hardware prefetcher underneath, plus what the
// hardware unit itself did during the BASELINE run.
type HWCrossRow struct {
	Machine  string
	HW       string
	Workload string

	BaselineCycles uint64
	InterPct       float64 // INTER speedup over BASELINE, %
	InterIntraPct  float64 // INTER+INTRA speedup over BASELINE, %

	// Hardware-prefetcher statistics of the BASELINE cell (no software
	// prefetching — the unit sees the raw demand-miss stream).
	HWTrains     uint64
	HWIssued     uint64
	HWSuppressed uint64
}

// HWCross measures the software×hardware cross-product: for every
// machine, every hardware-prefetcher model in the zoo, and every ablation
// workload, it runs BASELINE, INTER, and INTER+INTRA and reports the
// software speedups under that hardware model. All cells run as one batch
// across the worker pool.
func (e *Engine) HWCross(size workloads.Size) ([]HWCrossRow, error) {
	machines := []string{"Pentium4", "AthlonMP"}
	models := memsim.HWModels()
	// The ablation workloads: the paper's three headline benchmarks (db,
	// jess, euler — the ones with stated speedups) plus mtrt, the
	// pointer-chasing stress case where hardware stride detection has the
	// least to work with.
	hwCrossWorkloads := []string{"jess", "db", "euler", "mtrt"}

	var specs []Spec
	for _, machine := range machines {
		for _, hw := range models {
			for _, name := range hwCrossWorkloads {
				w, err := workloads.ByName(name)
				if err != nil {
					return nil, err
				}
				for _, mode := range []jit.Mode{jit.Baseline, jit.Inter, jit.InterIntra} {
					specs = append(specs, Spec{
						Workload: name, Size: size, Machine: machine,
						Mode: mode, HeapBytes: w.HeapBytes, HW: hw,
					})
				}
			}
		}
	}
	stats, err := e.runBatch(specs)
	if err != nil {
		return nil, err
	}

	var rows []HWCrossRow
	i := 0
	for _, machine := range machines {
		for _, hw := range models {
			for _, name := range hwCrossWorkloads {
				base, inter, both := stats[i], stats[i+1], stats[i+2]
				i += 3
				rows = append(rows, HWCrossRow{
					Machine:        machine,
					HW:             hw,
					Workload:       name,
					BaselineCycles: base.Cycles,
					InterPct:       SpeedupPct(base, inter),
					InterIntraPct:  SpeedupPct(base, both),
					HWTrains:       base.HW.Trains,
					HWIssued:       base.HW.Issued,
					HWSuppressed:   base.HW.Suppressed,
				})
			}
		}
	}
	return rows, nil
}

// FormatHWCross renders the cross-product as one table per machine.
func FormatHWCross(rows []HWCrossRow) string {
	var sb strings.Builder
	sb.WriteString("Software x hardware prefetching cross-product\n")
	sb.WriteString("(software speedup over BASELINE under each hardware-prefetcher model;\n")
	sb.WriteString(" hw columns are the unit's activity during the BASELINE run)\n")
	machine := ""
	for _, r := range rows {
		if r.Machine != machine {
			machine = r.Machine
			fmt.Fprintf(&sb, "\n%s\n", machine)
			fmt.Fprintf(&sb, "%-12s %-11s %14s %9s %9s %10s %10s %10s\n",
				"hw model", "benchmark", "base cycles", "INTER", "I+I",
				"hw trains", "hw issued", "hw suppr")
		}
		fmt.Fprintf(&sb, "%-12s %-11s %14d %+8.2f%% %+8.2f%% %10d %10d %10d\n",
			r.HW, r.Workload, r.BaselineCycles, r.InterPct, r.InterIntraPct,
			r.HWTrains, r.HWIssued, r.HWSuppressed)
	}
	return sb.String()
}
