package strider

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strider/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden decision logs")

// TestGoldenDecisionTraces locks down the full decision pipeline end to
// end: the quickstart workload (jess at the small size) is explained on
// both evaluation machines under every prediction source and the complete
// decision log — JIT compiles, loop verdicts, Sec. 3.3 filter decisions,
// prefetch-site attribution — is diffed against a checked-in golden. Any
// change to inspection, stride detection, the profitability filter, code
// generation, or the memory attribution shows up here as a readable diff.
// The static and pgo traces additionally pin the "[via static]"/"[via
// pgo]" reason-code markers that distinguish statically predicted and
// profile-replayed emits from dynamically inspected ones. The goldens
// predate the threaded execution tier, which now runs every JIT-compiled
// method, so they also pin that tier to the interpreter's bytes.
//
// Regenerate after an intended change with:
//
//	go test -run TestGoldenDecisionTraces -update .
func TestGoldenDecisionTraces(t *testing.T) {
	predicts := []struct{ predict, suffix string }{
		{"", ""}, {"static", "_static"}, {"pgo", "_pgo"},
	}
	for _, machine := range []string{"Pentium4", "AthlonMP"} {
		for _, p := range predicts {
			name := machine
			if p.predict != "" {
				name += "/" + p.predict
			}
			spec := Spec{
				Workload: "jess", Size: SizeSmall, Machine: machine, Mode: InterIntra,
				Predict: p.predict,
			}
			golden := filepath.Join("testdata", "golden",
				fmt.Sprintf("jess_small_%s_interintra%s.log", strings.ToLower(machine), p.suffix))
			t.Run(name, func(t *testing.T) {
				log, err := Explain(spec)
				if err != nil {
					t.Fatal(err)
				}
				if *update {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, []byte(log), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				checkGolden(t, golden, log)
			})
			// The exec=compiled leg rebuilds the trace with the VM in hand,
			// so it can also check that every JIT-compiled method ran on
			// the threaded tier: the tier is bit-identical to the step
			// loop, so the bytes alone would not notice a silent fallback.
			// It never writes goldens.
			t.Run(name+"/exec=compiled", func(t *testing.T) {
				if *update {
					return
				}
				s := spec.Canonical()
				tr := telemetry.NewTrace()
				v, err := engine().NewVM(s, tr)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := v.Measure(nil, s.Warmups); err != nil {
					t.Fatal(err)
				}
				v.FlushTelemetry()
				compiled := 0
				for _, m := range v.Prog.Methods() {
					if v.CompiledFor(m) == nil {
						continue
					}
					compiled++
					if v.Invoke(m, nil).Threaded == nil {
						t.Errorf("compiled method %s has no threaded artifact", m.QName())
					}
				}
				if compiled == 0 {
					t.Error("no method was JIT-compiled")
				}
				checkGolden(t, golden, tr.DecisionLog())
			})
		}
	}
}

// checkGolden diffs a decision log against its checked-in golden.
func checkGolden(t *testing.T, golden, log string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if log != string(want) {
		t.Errorf("decision log diverged from %s (rerun with -update if intended):\n%s",
			golden, diffLines(string(want), log))
	}
}

// diffLines renders a minimal line diff: the first divergent line with
// context, enough to see what changed without a diff dependency.
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			var b strings.Builder
			fmt.Fprintf(&b, "first divergence at line %d:\n", i+1)
			for j := max(0, i-2); j <= i && j < n; j++ {
				fmt.Fprintf(&b, "  want: %s\n", w[j])
			}
			fmt.Fprintf(&b, "  got:  %s\n", g[i])
			return b.String()
		}
	}
	return fmt.Sprintf("line counts differ: want %d lines, got %d", len(w), len(g))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
