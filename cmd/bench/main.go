// Command bench runs the pinned benchmark suite and maintains the
// BENCH_<n>.json performance trajectory, or diffs two such reports with a
// regression threshold (the CI benchmark gate).
//
// Usage:
//
//	bench [-run substr] [-iters n] [-time dur] [-parallel n]
//	      [-out file] [-sha sha] [-timestamp ts] [-list]
//	      [-cpuprofile file] [-memprofile file]
//	bench -diff base.json new.json [-threshold pct] [-allow-alloc-growth]
//
// Run mode measures every suite entry (serial by default — reports meant
// for gating should stay serial) and writes a machine-readable report:
// ns/op, allocs/op, B/op, plus each entry's deterministic simulated-work
// signature. -sha and -timestamp are stamped verbatim so a report is a
// pure function of code and flags.
//
// Diff mode compares a new report against a baseline: ns/op growth beyond
// -threshold percent (default 10) on any pinned entry, any allocs/op
// growth (unless -allow-alloc-growth), or a missing entry fails with exit
// code 1. B/op is shown as an informational bytes/op row and never fails
// the gate. Usage errors exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"strider/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored out of main so the CLI tests can
// drive it in-process. Exit codes: 0 ok, 1 regression/runtime failure,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFilter := fs.String("run", "", "only run suite entries whose name contains this substring")
	iters := fs.Int("iters", 3, "minimum timed iterations per entry")
	minTime := fs.Duration("time", time.Second, "minimum timed duration per entry")
	parallel := fs.Int("parallel", 1, "worker count for suite entries (timings are noisy when > 1)")
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	sha := fs.String("sha", "", "git SHA to stamp into the report")
	timestamp := fs.String("timestamp", "", "timestamp string to stamp into the report")
	list := fs.Bool("list", false, "list pinned suite entries and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the measured run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the measured run to this file")
	diff := fs.Bool("diff", false, "diff mode: compare two report files")
	threshold := fs.Float64("threshold", 10, "diff: ns/op regression threshold in percent")
	allowAllocs := fs.Bool("allow-alloc-growth", false, "diff: tolerate allocs/op increases")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *diff {
		if *cpuProfile != "" || *memProfile != "" {
			fmt.Fprintln(stderr, "bench: -cpuprofile/-memprofile apply to run mode, not -diff")
			return 2
		}
		if fs.NArg() != 2 {
			fmt.Fprintf(stderr, "bench: -diff wants exactly two report files, got %d args\n", fs.NArg())
			return 2
		}
		if *threshold <= 0 {
			fmt.Fprintf(stderr, "bench: -threshold must be positive, got %v\n", *threshold)
			return 2
		}
		base, err := bench.ReadFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		cur, err := bench.ReadFile(fs.Arg(1))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		findings := bench.Diff(base, cur, bench.DiffOptions{
			NsThresholdPct:   *threshold,
			AllowAllocGrowth: *allowAllocs,
		})
		fmt.Fprint(stdout, bench.FormatDiff(findings))
		if regs := bench.Regressions(findings); len(regs) > 0 {
			fmt.Fprintf(stderr, "bench: %d regression(s) beyond the %.0f%% ns/op threshold (allocs/op gated at zero growth)\n",
				len(regs), *threshold)
			return 1
		}
		fmt.Fprintf(stdout, "no regressions (ns/op threshold %.0f%%)\n", *threshold)
		return 0
	}

	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	entries := bench.Suite()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	sort.Strings(names)
	if *list {
		// Sorted, not suite order: the list is a lookup table for -run,
		// and suite order shuffles as entries are added between releases.
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	// Validate the selector before measuring anything, like the other
	// CLIs validate their enum flags: a typo costs an exit 2 and the
	// valid set, not a silent empty report.
	if *runFilter != "" {
		matched := false
		for _, n := range names {
			if strings.Contains(n, *runFilter) {
				matched = true
				break
			}
		}
		if !matched {
			fmt.Fprintf(stderr, "bench: -run %q matches no suite entries; valid entries:\n  %s\n",
				*runFilter, strings.Join(names, "\n  "))
			return 2
		}
	}

	// Profile files are opened before any measurement so a bad path is a
	// cheap exit 2, not a wasted suite run. The CPU profile covers exactly
	// the measured entries (setup included — setup cost is part of what a
	// hot-path investigation wants to see); the heap profile is taken after
	// the run, when steady-state retention is what remains.
	var cpuOut, memOut *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "bench: -cpuprofile: %v\n", err)
			return 2
		}
		cpuOut = f
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "bench: -memprofile: %v\n", err)
			return 2
		}
		memOut = f
	}
	if cpuOut != nil {
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			fmt.Fprintf(stderr, "bench: -cpuprofile: %v\n", err)
			return 2
		}
	}

	opts := bench.Options{
		MinIters:  *iters,
		MinTime:   *minTime,
		Parallel:  *parallel,
		GitSHA:    *sha,
		Timestamp: *timestamp,
	}
	if *runFilter != "" {
		opts.Filter = func(name string) bool { return strings.Contains(name, *runFilter) }
	}
	report, err := bench.RunSuite(entries, opts)
	if cpuOut != nil {
		pprof.StopCPUProfile()
		if cerr := cpuOut.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if memOut != nil {
		runtime.GC() // flush unreachable setup garbage so the profile shows live state
		if perr := pprof.WriteHeapProfile(memOut); perr != nil && err == nil {
			err = perr
		}
		if cerr := memOut.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, m := range report.Entries {
		fmt.Fprintf(stderr, "%-34s %5d iters  %14.0f ns/op  %10.1f allocs/op  %14.0f B/op\n",
			m.Name, m.Iters, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
	if *out == "" {
		data, err := report.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		stdout.Write(data)
		return 0
	}
	if err := report.WriteFile(*out); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}
