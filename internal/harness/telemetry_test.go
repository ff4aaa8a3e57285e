package harness

import (
	"strings"
	"testing"

	"strider/internal/core/jit"
	"strider/internal/telemetry"
	"strider/internal/workloads"
)

// TestRecorderUnderParallelGrid hammers one shared Trace from parallel
// grid workers (the -race CI job makes this a data-race detector): a mix
// of distinct and duplicate cells, so fresh executions, singleflight
// joins, and cache hits all emit into the same recorder concurrently.
func TestRecorderUnderParallelGrid(t *testing.T) {
	tr := telemetry.NewTrace()
	e := &Engine{Recorder: tr}

	var specs []Spec
	for i := 0; i < 4; i++ { // duplicates on purpose
		for _, mode := range []jit.Mode{jit.Baseline, jit.InterIntra} {
			for _, machine := range []string{"Pentium4", "AthlonMP"} {
				specs = append(specs, Spec{
					Workload: "search", Size: workloads.SizeSmall,
					Machine: machine, Mode: mode,
				})
			}
		}
	}
	results := Grid{Specs: specs, Engine: e, Parallel: 8}.Run()
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec, r.Err)
		}
	}

	var cells, compiles, sites int
	for _, ev := range tr.Events() {
		switch ev.(type) {
		case telemetry.CellEvent:
			cells++
		case telemetry.CompileEvent:
			compiles++
		case telemetry.SiteEvent:
			sites++
		}
	}
	if cells != len(specs) {
		t.Errorf("cell events = %d, want %d (one per grid cell)", cells, len(specs))
	}
	// Only the 4 distinct specs execute; duplicates join or hit the cache
	// and contribute cell events only.
	if compiles == 0 {
		t.Error("no compile events reached the shared recorder")
	}
	if sites == 0 {
		t.Error("no site events reached the shared recorder")
	}
}

// TestExplainIsDeterministicAndComplete runs Explain twice for the same
// spec: the logs must be byte-identical (the golden-trace suite depends on
// this) and carry each layer of the decision trace.
func TestExplainIsDeterministicAndComplete(t *testing.T) {
	spec := Spec{Workload: "search", Size: workloads.SizeSmall,
		Machine: "Pentium4", Mode: jit.InterIntra}
	e := new(Engine)
	a, err := e.Explain(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Explain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Explain is not deterministic:\n--- first\n%s\n--- second\n%s", a, b)
	}
	for _, want := range []string{"method ", "ledger:", "loop @B", "LOOP_"} {
		if !strings.Contains(a, want) {
			t.Errorf("decision log missing %q:\n%s", want, a)
		}
	}
}

// TestExplainLeavesCacheUntouched: Explain must bypass the result cache
// in both directions — no hit taken, no entry published.
func TestExplainLeavesCacheUntouched(t *testing.T) {
	e := new(Engine)
	spec := Spec{Workload: "search", Size: workloads.SizeSmall,
		Machine: "AthlonMP", Mode: jit.Inter}
	if _, err := e.Explain(spec); err != nil {
		t.Fatal(err)
	}
	c := e.Counters()
	if c.Executions != 0 || c.CacheHits != 0 {
		t.Errorf("Explain touched the engine: %+v", c)
	}
	if _, _, err := e.run(spec); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().Executions; got != 1 {
		t.Errorf("spec should still execute fresh after Explain, executions = %d", got)
	}
}
