package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"strider/internal/bench"
)

func writeReport(t *testing.T, name string, entries []bench.Measurement) string {
	t.Helper()
	r := &bench.Report{Schema: bench.Schema, Entries: entries}
	path := filepath.Join(t.TempDir(), name)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffGateFailsOnSyntheticRegression drives the exact command CI runs
// and asserts the exit codes the gate relies on: 1 for a regression, 0 for
// a clean comparison.
func TestDiffGateFailsOnSyntheticRegression(t *testing.T) {
	base := writeReport(t, "base.json", []bench.Measurement{
		{Name: "vm/x", Iters: 3, NsPerOp: 1000, AllocsPerOp: 10},
	})
	regressed := writeReport(t, "regressed.json", []bench.Measurement{
		{Name: "vm/x", Iters: 3, NsPerOp: 1500, AllocsPerOp: 10},
	})
	clean := writeReport(t, "clean.json", []bench.Measurement{
		{Name: "vm/x", Iters: 3, NsPerOp: 1050, AllocsPerOp: 10},
	})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", base, regressed}, &stdout, &stderr); code != 1 {
		t.Errorf("50%% regression: exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Errorf("diff output lacks regression marker:\n%s", &stdout)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-diff", base, clean}, &stdout, &stderr); code != 0 {
		t.Errorf("5%% drift under 10%% threshold: exit = %d, want 0\nstderr:\n%s", code, &stderr)
	}

	// A tighter threshold flips the clean comparison into a failure.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-diff", "-threshold", "2", base, clean}, &stdout, &stderr); code != 1 {
		t.Errorf("5%% drift under 2%% threshold: exit = %d, want 1", code)
	}
}

func TestDiffGateAllocGrowth(t *testing.T) {
	base := writeReport(t, "base.json", []bench.Measurement{
		{Name: "vm/x", Iters: 3, NsPerOp: 1000, AllocsPerOp: 0},
	})
	alloc := writeReport(t, "alloc.json", []bench.Measurement{
		{Name: "vm/x", Iters: 3, NsPerOp: 1000, AllocsPerOp: 3},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", base, alloc}, &stdout, &stderr); code != 1 {
		t.Errorf("alloc growth: exit = %d, want 1", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-diff", "-allow-alloc-growth", base, alloc}, &stdout, &stderr); code != 0 {
		t.Errorf("alloc growth waived: exit = %d, want 0\nstderr:\n%s", code, &stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cases := [][]string{
		{"-diff", "only-one.json"},
		{"-diff", "-threshold", "0", "a.json", "b.json"},
		{"-diff", "a-file-that-does-not-exist.json", "another.json"},
		{"unexpected-positional-arg"},
		{"-no-such-flag"},
		{"-run", "matches-no-entry-at-all", "-iters", "1", "-time", "1ns"},
		{"-diff", "-cpuprofile", "x.pprof", "a.json", "b.json"},
		{"-diff", "-memprofile", "x.pprof", "a.json", "b.json"},
		{"-cpuprofile", "/no/such/dir/cpu.pprof", "-run", "memsim/stride-sweep", "-iters", "1", "-time", "1ns"},
		{"-memprofile", "/no/such/dir/mem.pprof", "-run", "memsim/stride-sweep", "-iters", "1", "-time", "1ns"},
	}
	for _, args := range cases {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestListMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d\nstderr:\n%s", code, &stderr)
	}
	for _, want := range []string{"vm/jess-small", "memsim/stride-sweep", "grid/compress-small-3modes",
		"exec/jess-small-compiled"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list output missing %s:\n%s", want, &stdout)
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Errorf("-list output is not sorted:\n%s", &stdout)
	}
}

// TestProfileFlags runs one real (tiny) measurement with both profile
// flags and asserts the files come out non-empty. Profile content is
// pprof's business; existence and non-emptiness are ours.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "memsim/stride-sweep", "-iters", "1", "-time", "1ns",
		"-cpuprofile", cpu, "-memprofile", mem, "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, &stderr)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile file: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

// TestRunSelectorValidation pins the typo behavior: exit 2 with the valid
// entry set on stderr, before any measurement runs.
func TestRunSelectorValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "exec/jess-small-compield"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	for _, want := range []string{"matches no suite entries", "exec/jess-small-compiled", "vm/jess-small"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, &stderr)
		}
	}
}
