package harness

import (
	"strings"
	"testing"

	"strider/internal/core/jit"
	"strider/internal/vm"
	"strider/internal/workloads"
)

func TestRunAndCache(t *testing.T) {
	e := new(Engine)
	spec := Spec{Workload: "search", Size: workloads.SizeSmall, Machine: "Pentium4", Mode: jit.Baseline}
	a, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Checksum != b.Checksum {
		t.Error("cached result differs")
	}
	if c := e.Counters(); c.Executions != 1 || c.CacheHits != 1 {
		t.Errorf("counters %+v, want one execution and one cache hit", c)
	}
}

func TestRunErrors(t *testing.T) {
	e := new(Engine)
	if _, err := e.Run(Spec{Workload: "nope"}); err == nil {
		t.Error("unknown workload must error")
	}
	if _, err := e.Run(Spec{Workload: "search", Machine: "VAX"}); err == nil {
		t.Error("unknown machine must error")
	}
	if _, err := (&Engine{HW: "psychic"}).Run(Spec{Workload: "search"}); err == nil {
		t.Error("unknown engine HW default must error")
	}
	if CheckHW("psychic") == nil || CheckPredict("psychic") == nil {
		t.Error("CheckHW and CheckPredict must reject unknown names")
	}
	if CheckHW("") != nil || CheckPredict("") != nil {
		t.Error("empty names select the built-in defaults")
	}
}

// TestEnginesShareNothing: a result or profile cached by one Engine is
// invisible to another — the same spec on a fresh Engine is an execution,
// not a hit, and its PGO profile is built again.
func TestEnginesShareNothing(t *testing.T) {
	spec := Spec{Workload: "search", Size: workloads.SizeSmall, Mode: jit.InterIntra, Predict: "pgo"}
	a, b := new(Engine), new(Engine)
	ra, err := a.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Error("one spec on two engines gave different results")
	}
	want := Counters{Executions: 1, ProfileMisses: 1}
	for name, e := range map[string]*Engine{"a": a, "b": b} {
		if c := e.Counters(); c != want {
			t.Errorf("engine %s counters %+v, want %+v", name, c, want)
		}
	}
}

// TestEngineDefaultsApply: an Engine's HW and Predict defaults fill the
// specs that leave those fields empty, and only those; Spec.Key stays
// the static identity.
func TestEngineDefaultsApply(t *testing.T) {
	spec := Spec{Workload: "search", Size: workloads.SizeSmall, Mode: jit.InterIntra}
	e := &Engine{HW: "ipstride", Predict: "static"}
	got := e.canonical(spec)
	if got.HW != "ipstride" || got.Predict != "static" {
		t.Errorf("engine defaults not applied: %+v", got)
	}
	explicit := spec
	explicit.HW, explicit.Predict = "none", "dynamic"
	if got := e.canonical(explicit); got.HW != "none" || got.Predict != "dynamic" {
		t.Errorf("engine defaults override explicit fields: %+v", got)
	}
	if spec.Key() != new(Engine).canonical(spec).key() {
		t.Error("Spec.Key must equal the key of an Engine without defaults")
	}
	st, err := e.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.HWModel != "ipstride" {
		t.Errorf("run simulated hw model %q, want the engine default ipstride", st.HWModel)
	}
}

func TestSpeedupPct(t *testing.T) {
	var base, opt vm.RunStats
	base.Cycles, opt.Cycles = 110, 100
	if got := SpeedupPct(base, opt); got < 9.9 || got > 10.1 {
		t.Errorf("speedup = %f, want ~10", got)
	}
	if SpeedupPct(base, vm.RunStats{}) != 0 {
		t.Error("zero-cycle guard")
	}
}

func TestSpecKeyDistinguishesJITOptions(t *testing.T) {
	a := Spec{Workload: "db", Machine: "Pentium4"}.withDefaults()
	o := jit.DefaultOptions(nil, jit.InterIntra)
	o.C = 3
	b := a
	b.JIT = &o
	if a.key() == b.key() {
		t.Error("JIT overrides must change the cache key")
	}
}

func TestTable1Content(t *testing.T) {
	s, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"load dependence graph", "findInMemory", "11 nodes", "inter=+4", "intra=+8",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestTable2Content(t *testing.T) {
	s := Table2()
	for _, want := range []string{"Pentium4", "AthlonMP", "128B", "256"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, s)
		}
	}
}

func TestFiguresSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all workloads")
	}
	e := new(Engine)
	rows6, err := e.Figure6(workloads.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows6) != 12 {
		t.Fatalf("Figure 6 rows = %d", len(rows6))
	}
	byName := map[string]SpeedupRow{}
	for _, r := range rows6 {
		byName[r.Workload] = r
	}
	if byName["db"].InterIntra <= 0 {
		t.Error("db INTER+INTRA must be positive")
	}
	if byName["db"].Inter != 0 {
		t.Errorf("db INTER must be ~0, got %f", byName["db"].Inter)
	}
	if byName["compress"].InterIntra != 0 {
		t.Error("compress must be unchanged")
	}
	txt := FormatSpeedups("Figure 6", rows6)
	if !strings.Contains(txt, "db") || !strings.Contains(txt, "paper") {
		t.Error("formatted figure incomplete")
	}

	rows8, err := e.Figure8(workloads.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows8) != 12 {
		t.Error("Figure 8 rows")
	}
	var db MPIRow
	for _, r := range rows8 {
		if r.Workload == "db" {
			db = r
		}
	}
	if db.Opt >= db.Baseline {
		t.Errorf("db L1 MPI must drop: %.3f -> %.3f", db.Baseline, db.Opt)
	}
	if s := FormatMPI("Figure 8", rows8); !strings.Contains(s, "BASELINE") {
		t.Error("MPI formatting")
	}

	rows11, err := e.Figure11(workloads.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows11 {
		if r.PrefetchOfJITPct < 0 || r.PrefetchOfJITPct > 25 {
			t.Errorf("%s: prefetch compile share %.1f%% implausible", r.Workload, r.PrefetchOfJITPct)
		}
	}
	if s := FormatCompile(rows11); !strings.Contains(s, "paper") {
		t.Error("Figure 11 formatting")
	}

	t3, err := e.Table3(workloads.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3) != 12 {
		t.Error("Table 3 rows")
	}
	for _, r := range t3 {
		if r.CompiledPct <= 0 || r.CompiledPct > 100 {
			t.Errorf("%s compiled%% = %f", r.Workload, r.CompiledPct)
		}
	}
	if s := FormatTable3(t3); !strings.Contains(s, "SPECjvm98") {
		t.Error("Table 3 formatting")
	}
}
