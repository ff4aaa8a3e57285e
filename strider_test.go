package strider_test

import (
	"bytes"
	"testing"

	"strider"
)

func TestFacadeSmoke(t *testing.T) {
	if len(strider.Workloads()) != 12 {
		t.Fatal("twelve Table 3 workloads")
	}
	if len(strider.Machines()) != 2 {
		t.Fatal("two machines")
	}
	if strider.Pentium4().Name != "Pentium4" || strider.AthlonMP().Name != "AthlonMP" {
		t.Fatal("machine constructors")
	}
	w, err := strider.WorkloadByName("jess")
	if err != nil || w.Name != "jess" {
		t.Fatal(err)
	}
	stats, err := strider.Run(strider.Spec{
		Workload: "search", Machine: "AthlonMP", Mode: strider.Baseline, Size: strider.SizeSmall,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles == 0 || stats.Checksum == 0 {
		t.Error("empty run stats")
	}
	inter, both, err := strider.Speedups("search", "AthlonMP", strider.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	if inter != 0 || both != 0 {
		t.Errorf("search must be unaffected: %f, %f", inter, both)
	}
}

func TestFacadeBatch(t *testing.T) {
	specs := []strider.Spec{
		{Workload: "search", Machine: "Pentium4", Mode: strider.Baseline, Size: strider.SizeSmall},
		{Workload: "search", Machine: "AthlonMP", Mode: strider.Baseline, Size: strider.SizeSmall},
		{Workload: "search", Machine: "Pentium4", Mode: strider.Baseline, Size: strider.SizeSmall},
	}
	results, err := strider.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		if r.Spec.Machine != specs[i].Machine {
			t.Errorf("cell %d out of order", i)
		}
	}
	if results[0].Stats.Cycles != results[2].Stats.Cycles {
		t.Error("duplicate cells must return identical results")
	}
	if results[0].Stats.Checksum != results[1].Stats.Checksum {
		t.Error("checksum must not depend on the machine")
	}
	if strider.Parallelism() < 1 {
		t.Error("parallelism must be at least 1")
	}
}

func TestFacadeCustomVM(t *testing.T) {
	w, _ := strider.WorkloadByName("jess")
	prog := w.Build(strider.SizeSmall)
	v := strider.NewVM(prog, strider.VMConfig{Machine: strider.Pentium4(), Mode: strider.InterIntra})
	stats, err := v.Measure(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Prefetch.SpecLoads == 0 {
		t.Error("jess under INTER+INTRA must compile spec_loads")
	}
	if v.CompiledFor(prog.MethodByName("::findInMemory")) == nil {
		t.Error("findInMemory must be JIT-compiled")
	}
}

// TestFacadeEngineSettings: settings live on a caller-built Engine. Its
// HW default must give the same cell as naming the model in the spec on
// the package-level default engine, and its Progress writer sees the
// batch's cells.
func TestFacadeEngineSettings(t *testing.T) {
	var progress bytes.Buffer
	e := &strider.Engine{HW: "none", Parallel: 1, Progress: &progress}
	spec := strider.Spec{Workload: "search", Machine: "Pentium4", Mode: strider.InterIntra, Size: strider.SizeSmall}
	res, err := e.RunAll([]strider.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	spec.HW = "none"
	want, err := strider.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Stats != want {
		t.Errorf("Engine.HW default diverged from Spec.HW:\n engine %+v\n spec   %+v", res[0].Stats, want)
	}
	if res[0].Stats.HWModel != "none" {
		t.Errorf("HWModel = %q, want none", res[0].Stats.HWModel)
	}
	if progress.Len() == 0 {
		t.Error("Engine.Progress saw no cell")
	}
}
