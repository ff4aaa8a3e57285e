package harness

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"strider/internal/core/jit"
	"strider/internal/workloads"
)

// TestConcurrentRunSingleflight hammers one spec from many goroutines and
// asserts the engine performed exactly one underlying VM execution, with
// every caller observing the identical result. Run under -race in CI.
func TestConcurrentRunSingleflight(t *testing.T) {
	e := new(Engine)
	spec := Spec{Workload: "search", Size: workloads.SizeSmall, Machine: "Pentium4", Mode: jit.Baseline}

	const n = 16
	var wg sync.WaitGroup
	results := make([]struct {
		cycles   uint64
		checksum uint64
		err      error
	}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := e.Run(spec)
			results[i].cycles = s.Cycles
			results[i].checksum = uint64(s.Checksum)
			results[i].err = err
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if r.cycles != results[0].cycles || r.checksum != results[0].checksum {
			t.Errorf("caller %d observed a different result: cycles %d vs %d",
				i, r.cycles, results[0].cycles)
		}
	}
	c := e.Counters()
	if c.Executions != 1 {
		t.Errorf("executions = %d, want exactly 1 (singleflight)", c.Executions)
	}
	if c.DedupHits+c.CacheHits != n-1 {
		t.Errorf("dedup+cache hits = %d+%d, want %d", c.DedupHits, c.CacheHits, n-1)
	}
}

// TestGridRunOrderAndDedup checks that Grid returns results in spec order
// and that duplicate cells within one grid collapse onto one execution.
func TestGridRunOrderAndDedup(t *testing.T) {
	e := new(Engine)
	a := Spec{Workload: "search", Size: workloads.SizeSmall, Machine: "Pentium4", Mode: jit.Baseline}
	b := Spec{Workload: "search", Size: workloads.SizeSmall, Machine: "AthlonMP", Mode: jit.Baseline}
	specs := []Spec{a, b, a, b, a}

	var mu sync.Mutex
	calls := 0
	results := Grid{Specs: specs, Engine: e, Parallel: 4, Progress: func(done, total int, r Result) {
		mu.Lock()
		calls++
		mu.Unlock()
		if total != len(specs) {
			t.Errorf("progress total = %d, want %d", total, len(specs))
		}
	}}.Run()

	if len(results) != len(specs) {
		t.Fatalf("results = %d, want %d", len(results), len(specs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		if r.Spec.Machine != specs[i].Machine {
			t.Errorf("cell %d out of order: %s", i, r.Spec.Machine)
		}
	}
	if results[0].Stats.Cycles != results[2].Stats.Cycles || results[2].Stats.Cycles != results[4].Stats.Cycles {
		t.Error("duplicate cells returned different results")
	}
	if calls != len(specs) {
		t.Errorf("progress callbacks = %d, want %d", calls, len(specs))
	}
	if c := e.Counters(); c.Executions != 2 {
		t.Errorf("executions = %d, want 2 (one per distinct cell)", c.Executions)
	}
}

// exclusiveLineWriter fails the test if two Write calls overlap in time or
// if any Write is not one complete newline-terminated progress line — the
// two symptoms of unserialized progress printing.
type exclusiveLineWriter struct {
	t      *testing.T
	busy   atomic.Bool
	lines  atomic.Int64
	racing atomic.Bool
	torn   atomic.Bool
}

func (w *exclusiveLineWriter) Write(p []byte) (int, error) {
	if !w.busy.CompareAndSwap(false, true) {
		w.racing.Store(true)
	}
	s := string(p)
	if !strings.HasSuffix(s, "\n") || strings.Count(s, "\n") != 1 {
		w.torn.Store(true)
	}
	w.lines.Add(1)
	w.busy.Store(false)
	return len(p), nil
}

// TestProgressNoInterleaving runs several grids concurrently, each with its
// own wide worker pool, all sharing one progress writer — the differ and
// nested figure batches do exactly this. Every progress line must reach the
// writer as one exclusive, complete Write. Run under -race in CI: the
// pre-fix per-Run progress mutex also made concurrent grids race on the
// writer itself.
func TestProgressNoInterleaving(t *testing.T) {
	w := &exclusiveLineWriter{t: t}
	e := &Engine{Progress: w}

	mkSpecs := func(machine string) []Spec {
		var specs []Spec
		for _, mode := range []jit.Mode{jit.Baseline, jit.Inter, jit.InterIntra} {
			specs = append(specs, Spec{Workload: "search", Size: workloads.SizeSmall, Machine: machine, Mode: mode})
		}
		return specs
	}

	const grids = 4
	var wg sync.WaitGroup
	for i := 0; i < grids; i++ {
		machine := "Pentium4"
		if i%2 == 1 {
			machine = "AthlonMP"
		}
		wg.Add(1)
		go func(machine string) {
			defer wg.Done()
			for _, r := range (Grid{Specs: mkSpecs(machine), Engine: e, Parallel: 3}.Run()) {
				if r.Err != nil {
					t.Errorf("cell %s: %v", r.Spec.String(), r.Err)
				}
			}
		}(machine)
	}
	wg.Wait()

	if w.racing.Load() {
		t.Error("progress writer saw overlapping Write calls (interleaving)")
	}
	if w.torn.Load() {
		t.Error("progress writer received a torn or multi-line Write")
	}
	if got, want := w.lines.Load(), int64(grids*3); got != want {
		t.Errorf("progress lines = %d, want %d", got, want)
	}
}

func TestGridErrorReporting(t *testing.T) {
	specs := []Spec{
		{Workload: "search", Size: workloads.SizeSmall, Machine: "Pentium4", Mode: jit.Baseline},
		{Workload: "no-such-workload"},
	}
	results, err := new(Engine).RunAll(specs)
	if err == nil {
		t.Fatal("RunAll must surface the cell error")
	}
	if results[0].Err != nil || results[1].Err == nil {
		t.Error("per-cell errors misattributed")
	}
}

func TestRunAllEmpty(t *testing.T) {
	results, err := new(Engine).RunAll(nil)
	if err != nil || len(results) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(results))
	}
}

// TestSerialParallelDeterminism asserts the acceptance criterion of the
// parallel engine: a figure regenerated serially and with a wide worker
// pool is byte-identical — per-run isolation means scheduling order can
// not leak into results.
func TestSerialParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many workloads twice")
	}
	render := func(e *Engine) string {
		rows, err := e.Figure6(workloads.SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		t3, err := e.Table3(workloads.SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		return FormatSpeedups("Figure 6", rows) + FormatTable3(t3)
	}

	serial := render(&Engine{Parallel: 1})
	parallel := render(&Engine{Parallel: 8})

	if serial != parallel {
		t.Errorf("serial and parallel tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "db") {
		t.Error("table content missing")
	}
}
