package harness

import (
	"fmt"
	"strings"

	"strider/internal/core/jit"
	"strider/internal/workloads"
)

// PredictRow is one (machine, workload) group of the prediction-source
// comparison: the INTER+INTRA speedup over BASELINE under each source of
// stride predictions, with the emitted-prefetch counts that explain the
// gaps. The match columns answer the experiment's question directly —
// where does offline prediction reproduce dynamic inspection's decisions,
// and where does it fail.
type PredictRow struct {
	Machine  string
	Workload string

	BaselineCycles uint64
	DynamicPct     float64 // INTER+INTRA speedup, dynamic inspection
	StaticPct      float64 // INTER+INTRA speedup, offline static analyzer
	PGOPct         float64 // INTER+INTRA speedup, PGO profile replay

	// Emitted prefetch instructions (spec_loads included) per source.
	DynamicEmits int
	StaticEmits  int

	// StaticMatch: the static analyzer arrived at the dynamic run's exact
	// outcome (same emitted prefetches, same cycle count). PGOMatch: the
	// profile replay reproduced the dynamic run cycle for cycle — its
	// correctness contract, so "!=" here is a bug, not a finding.
	StaticMatch bool
	PGOMatch    bool
}

// PredictCross measures the prediction-source comparison: every workload
// on both machines under BASELINE and INTER+INTRA with dynamic, static,
// and PGO prediction. All cells run as one batch across the worker pool.
func (e *Engine) PredictCross(size workloads.Size) ([]PredictRow, error) {
	machines := []string{"Pentium4", "AthlonMP"}
	predicts := []string{"dynamic", "static", "pgo"}

	var specs []Spec
	for _, machine := range machines {
		for _, w := range workloads.All() {
			specs = append(specs, Spec{
				Workload: w.Name, Size: size, Machine: machine,
				Mode: jit.Baseline, HeapBytes: w.HeapBytes,
			})
			for _, p := range predicts {
				specs = append(specs, Spec{
					Workload: w.Name, Size: size, Machine: machine,
					Mode: jit.InterIntra, HeapBytes: w.HeapBytes, Predict: p,
				})
			}
		}
	}
	stats, err := e.runBatch(specs)
	if err != nil {
		return nil, err
	}

	var rows []PredictRow
	i := 0
	for _, machine := range machines {
		for _, w := range workloads.All() {
			base, dyn, st, pgo := stats[i], stats[i+1], stats[i+2], stats[i+3]
			i += 4
			rows = append(rows, PredictRow{
				Machine:        machine,
				Workload:       w.Name,
				BaselineCycles: base.Cycles,
				DynamicPct:     SpeedupPct(base, dyn),
				StaticPct:      SpeedupPct(base, st),
				PGOPct:         SpeedupPct(base, pgo),
				DynamicEmits:   dyn.Prefetch.Total(),
				StaticEmits:    st.Prefetch.Total(),
				StaticMatch:    st.Prefetch == dyn.Prefetch && st.Cycles == dyn.Cycles,
				PGOMatch:       pgo.Prefetch == dyn.Prefetch && pgo.Cycles == dyn.Cycles,
			})
		}
	}
	return rows, nil
}

// FormatPredictCross renders the comparison as one table per machine.
func FormatPredictCross(rows []PredictRow) string {
	var sb strings.Builder
	sb.WriteString("Static vs dynamic prediction\n")
	sb.WriteString("(INTER+INTRA speedup over BASELINE per prediction source; emits are\n")
	sb.WriteString(" inserted prefetch instructions; match compares decisions and cycles\n")
	sb.WriteString(" against the dynamic run — PGO must always match)\n")
	machine := ""
	for _, r := range rows {
		if r.Machine != machine {
			machine = r.Machine
			fmt.Fprintf(&sb, "\n%s\n", machine)
			fmt.Fprintf(&sb, "%-11s %14s %9s %9s %9s %10s %10s %7s %6s\n",
				"benchmark", "base cycles", "DYNAMIC", "STATIC", "PGO",
				"dyn emits", "st emits", "static", "pgo")
		}
		fmt.Fprintf(&sb, "%-11s %14d %+8.2f%% %+8.2f%% %+8.2f%% %10d %10d %7s %6s\n",
			r.Workload, r.BaselineCycles, r.DynamicPct, r.StaticPct, r.PGOPct,
			r.DynamicEmits, r.StaticEmits, matchMark(r.StaticMatch), matchMark(r.PGOMatch))
	}
	return sb.String()
}

func matchMark(ok bool) string {
	if ok {
		return "="
	}
	return "!="
}
