// Command experiments regenerates every table and figure of the paper's
// evaluation section (Sec. 4).
//
// Usage:
//
//	experiments [-size small|full] [-only table1,fig6,...] [-parallel N]
//	            [-json] [-trace out.json] [-metrics out.csv] [-hw model]
//	            [-predict source]
//
// Without -only it runs everything in paper order (the opt-in hwcross
// and predict artifacts — the software×hardware prefetching cross-product
// and the static-vs-dynamic prediction comparison — run only when
// selected explicitly). -hw replays every cell under one
// hardware-prefetcher model instead of each machine's default; -predict
// replays every cell under one prediction source (dynamic inspection,
// the offline static analyzer, or PGO profile replay). Results are
// printed as text tables with the paper's reported numbers alongside for
// comparison; -json emits one JSON object per row instead
// (machine-readable, for tracking benchmark trajectories across
// commits). Experiment cells are
// scheduled across a worker pool of -parallel simulations (default
// GOMAXPROCS); per-cell timing and progress lines go to stderr, so stdout
// is byte-identical at every parallelism level.
//
// -trace records the full telemetry stream (JIT compile events,
// inspection verdicts, Sec. 3.3 filter decisions, per-site prefetch
// attribution, grid scheduling) as Chrome trace_event JSON for
// chrome://tracing / Perfetto; -metrics writes the same events as a flat
// CSV table. Flag combinations are validated up front: an output file
// that cannot be opened, or -chart together with -json, is a usage error
// (exit 2) — nothing runs half-configured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"strider/internal/harness"
	"strider/internal/telemetry"
	"strider/internal/workloads"
)

// artifacts is the known -only selector set, in paper order. hwcross
// (the software×hardware prefetching cross-product) and predict (the
// static-vs-dynamic prediction comparison) are opt-in: they are not part
// of the paper's evaluation, and the default run's stdout must stay
// byte-identical across revisions.
var artifacts = []string{
	"table1", "table2", "table3",
	"fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"hwcross", "predict",
}

// defaultSkip lists artifacts excluded from a run without -only.
var defaultSkip = map[string]bool{"hwcross": true, "predict": true}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored out of main so the CLI tests can
// drive flag combinations in-process. It returns the exit code: 0 on
// success, 1 on runtime failure, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sizeFlag := fs.String("size", "full", "problem size: small or full")
	only := fs.String("only", "", "comma-separated subset: "+strings.Join(artifacts, ","))
	chart := fs.Bool("chart", false, "render figures as ASCII bar charts instead of tables")
	parallel := fs.Int("parallel", 0, "worker-pool size for experiment cells (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit JSON rows instead of text tables")
	progress := fs.Bool("progress", true, "print per-cell progress and timing to stderr")
	traceOut := fs.String("trace", "", "write telemetry as Chrome trace_event JSON to this file")
	metricsOut := fs.String("metrics", "", "write telemetry as CSV metric rows to this file")
	hwFlag := fs.String("hw", "", "hardware-prefetcher model for every cell (default: each machine's model)")
	predictFlag := fs.String("predict", "", "prediction source for every cell: dynamic, static, or pgo (default: dynamic)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	size := workloads.SizeFull
	if *sizeFlag == "small" {
		size = workloads.SizeSmall
	} else if *sizeFlag != "full" {
		fmt.Fprintf(stderr, "experiments: bad -size %q\n", *sizeFlag)
		return 2
	}
	if *chart && *jsonOut {
		fmt.Fprintf(stderr, "experiments: -chart and -json are mutually exclusive\n")
		return 2
	}
	if err := harness.SetHWModel(*hwFlag); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	defer harness.SetHWModel("")
	if err := harness.SetPredict(*predictFlag); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	defer harness.SetPredict("")

	known := map[string]bool{}
	for _, a := range artifacts {
		known[a] = true
	}
	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			name := strings.TrimSpace(s)
			if !known[name] {
				fmt.Fprintf(stderr, "experiments: unknown -only selector %q (valid: %s)\n",
					name, strings.Join(artifacts, ","))
				return 2
			}
			want[name] = true
		}
	}

	// Open telemetry outputs before any simulation runs: a writer that
	// cannot be opened is a usage error, not something to discover after
	// minutes of compute (and never silently).
	var trace *telemetry.Trace
	var traceFile, metricsFile *os.File
	openOut := func(path string) (*os.File, bool) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return nil, false
		}
		return f, true
	}
	if *traceOut != "" {
		f, ok := openOut(*traceOut)
		if !ok {
			return 2
		}
		traceFile = f
		defer traceFile.Close()
	}
	if *metricsOut != "" {
		f, ok := openOut(*metricsOut)
		if !ok {
			return 2
		}
		metricsFile = f
		defer metricsFile.Close()
	}
	if traceFile != nil || metricsFile != nil {
		trace = telemetry.NewTrace()
		harness.SetRecorder(trace)
		defer harness.SetRecorder(nil)
	}

	harness.SetParallelism(*parallel)
	if *progress {
		harness.SetProgress(stderr)
		defer harness.SetProgress(nil)
	}
	start := time.Now()

	sel := func(name string) bool {
		if len(want) > 0 {
			return want[name]
		}
		return !defaultSkip[name]
	}
	var runErr error
	fail := func(err error) { runErr = err }

	enc := json.NewEncoder(stdout)
	emit := func(rows any) {
		if err := enc.Encode(rows); err != nil {
			fail(err)
		}
	}

	if sel("table1") && runErr == nil {
		s, err := harness.Table1()
		if err != nil {
			fail(err)
		} else if *jsonOut {
			emit(map[string]string{"artifact": "table1", "text": s})
		} else {
			fmt.Fprintln(stdout, s)
		}
	}
	if sel("table2") && runErr == nil {
		if *jsonOut {
			emit(map[string]string{"artifact": "table2", "text": harness.Table2()})
		} else {
			fmt.Fprintln(stdout, harness.Table2())
		}
	}
	if sel("table3") && runErr == nil {
		rows, err := harness.Table3(size)
		if err != nil {
			fail(err)
		} else if *jsonOut {
			for _, r := range rows {
				emit(struct {
					Artifact         string  `json:"artifact"`
					Workload         string  `json:"workload"`
					Suite            string  `json:"suite"`
					CompiledPct      float64 `json:"compiled_pct"`
					PaperCompiledPct float64 `json:"paper_compiled_pct"`
				}{"table3", r.Workload, r.Suite, r.CompiledPct, r.PaperCompiledPct})
			}
		} else {
			fmt.Fprintln(stdout, harness.FormatTable3(rows))
		}
	}
	speedupOut := harness.FormatSpeedups
	if *chart {
		speedupOut = harness.SpeedupChart
	}
	mpiOut := harness.FormatMPI
	if *chart {
		mpiOut = harness.MPIChart
	}
	speedupFig := func(name, title string, fig func(workloads.Size) ([]harness.SpeedupRow, error)) {
		if !sel(name) || runErr != nil {
			return
		}
		rows, err := fig(size)
		if err != nil {
			fail(err)
			return
		}
		if *jsonOut {
			for _, r := range rows {
				emit(struct {
					Artifact   string  `json:"artifact"`
					Workload   string  `json:"workload"`
					Inter      float64 `json:"inter_pct"`
					InterIntra float64 `json:"inter_intra_pct"`
					PaperInter float64 `json:"paper_inter_pct"`
					PaperBoth  float64 `json:"paper_inter_intra_pct"`
				}{name, r.Workload, r.Inter, r.InterIntra, r.PaperInter, r.PaperBoth})
			}
		} else {
			fmt.Fprintln(stdout, speedupOut(title, rows))
		}
	}
	mpiFig := func(name, title string, fig func(workloads.Size) ([]harness.MPIRow, error)) {
		if !sel(name) || runErr != nil {
			return
		}
		rows, err := fig(size)
		if err != nil {
			fail(err)
			return
		}
		if *jsonOut {
			for _, r := range rows {
				emit(struct {
					Artifact string  `json:"artifact"`
					Workload string  `json:"workload"`
					Baseline float64 `json:"baseline_mpi"`
					Opt      float64 `json:"inter_intra_mpi"`
				}{name, r.Workload, r.Baseline, r.Opt})
			}
		} else {
			fmt.Fprintln(stdout, mpiOut(title, rows))
		}
	}

	speedupFig("fig6", "Figure 6: speedup ratios on the Pentium 4", harness.Figure6)
	speedupFig("fig7", "Figure 7: speedup ratios on the Athlon MP", harness.Figure7)
	mpiFig("fig8", "Figure 8: L1 cache load MPIs", harness.Figure8)
	mpiFig("fig9", "Figure 9: L2 cache load MPIs", harness.Figure9)
	mpiFig("fig10", "Figure 10: DTLB load MPIs", harness.Figure10)
	if sel("fig11") && runErr == nil {
		rows, err := harness.Figure11(size)
		if err != nil {
			fail(err)
		} else if *jsonOut {
			for _, r := range rows {
				emit(struct {
					Artifact         string  `json:"artifact"`
					Workload         string  `json:"workload"`
					PrefetchOfJITPct float64 `json:"prefetch_of_jit_pct"`
					JITOfTotalPct    float64 `json:"jit_of_total_pct"`
				}{"fig11", r.Workload, r.PrefetchOfJITPct, r.JITOfTotalPct})
			}
		} else {
			fmt.Fprintln(stdout, harness.FormatCompile(rows))
		}
	}

	if sel("hwcross") && runErr == nil {
		rows, err := harness.HWCross(size)
		if err != nil {
			fail(err)
		} else if *jsonOut {
			for _, r := range rows {
				emit(struct {
					Artifact       string  `json:"artifact"`
					Machine        string  `json:"machine"`
					HW             string  `json:"hw_model"`
					Workload       string  `json:"workload"`
					BaselineCycles uint64  `json:"baseline_cycles"`
					Inter          float64 `json:"inter_pct"`
					InterIntra     float64 `json:"inter_intra_pct"`
					HWTrains       uint64  `json:"hw_trains"`
					HWIssued       uint64  `json:"hw_issued"`
					HWSuppressed   uint64  `json:"hw_suppressed"`
				}{"hwcross", r.Machine, r.HW, r.Workload, r.BaselineCycles,
					r.InterPct, r.InterIntraPct, r.HWTrains, r.HWIssued, r.HWSuppressed})
			}
		} else {
			fmt.Fprintln(stdout, harness.FormatHWCross(rows))
		}
	}

	if sel("predict") && runErr == nil {
		rows, err := harness.PredictCross(size)
		if err != nil {
			fail(err)
		} else if *jsonOut {
			for _, r := range rows {
				emit(struct {
					Artifact       string  `json:"artifact"`
					Machine        string  `json:"machine"`
					Workload       string  `json:"workload"`
					BaselineCycles uint64  `json:"baseline_cycles"`
					Dynamic        float64 `json:"dynamic_pct"`
					Static         float64 `json:"static_pct"`
					PGO            float64 `json:"pgo_pct"`
					DynamicEmits   int     `json:"dynamic_emits"`
					StaticEmits    int     `json:"static_emits"`
					StaticMatch    bool    `json:"static_match"`
					PGOMatch       bool    `json:"pgo_match"`
				}{"predict", r.Machine, r.Workload, r.BaselineCycles,
					r.DynamicPct, r.StaticPct, r.PGOPct,
					r.DynamicEmits, r.StaticEmits, r.StaticMatch, r.PGOMatch})
			}
		} else {
			fmt.Fprintln(stdout, harness.FormatPredictCross(rows))
		}
	}

	if runErr != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", runErr)
		return 1
	}

	if traceFile != nil {
		if err := trace.WriteChromeTrace(traceFile); err != nil {
			fmt.Fprintf(stderr, "experiments: writing %s: %v\n", *traceOut, err)
			return 1
		}
	}
	if metricsFile != nil {
		if err := trace.WriteCSV(metricsFile); err != nil {
			fmt.Fprintf(stderr, "experiments: writing %s: %v\n", *metricsOut, err)
			return 1
		}
	}

	if *progress {
		c := harness.EngineCounters()
		sels := make([]string, 0, len(want))
		for s := range want {
			sels = append(sels, s)
		}
		sort.Strings(sels)
		scope := "all artifacts"
		if len(sels) > 0 {
			scope = strings.Join(sels, ",")
		}
		fmt.Fprintf(stderr, "experiments: %s in %s (%d VM executions, %d cache hits, %d deduped, %d workers)\n",
			scope, time.Since(start).Round(time.Millisecond),
			c.Executions, c.CacheHits, c.DedupHits, harness.Parallelism())
	}
	return 0
}
