package workloads_test

import (
	"testing"

	"strider/internal/harness"
	"strider/internal/oracle"
	"strider/internal/workloads"
)

// TestOracleFingerprintDeterministic: every workload must produce a
// byte-identical architectural fingerprint — result, output checksum,
// demand-load stream, final heap image, live object graph, statics, GC
// count — on two independent oracle runs. This is stronger than checksum
// determinism: it pins the entire observable machine state.
func TestOracleFingerprintDeterministic(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := oracle.Config{HeapBytes: w.HeapBytes}
			a, err := oracle.Run(w.Build(workloads.SizeSmall), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := oracle.Run(w.Build(workloads.SizeSmall), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Fatalf("fingerprints diverge across runs:\n%v", a.Diff(b))
			}
			if a.Trap != oracle.TrapNone {
				t.Fatalf("workload traps in the oracle: %s", a.Trap)
			}
		})
	}
}

// TestSerialMatchesRunAll: executing the full workload matrix serially
// and through the deduplicating parallel grid must produce identical
// stats — parallelism and cache state must be invisible in results.
func TestSerialMatchesRunAll(t *testing.T) {
	var specs []harness.Spec
	for _, w := range workloads.All() {
		specs = append(specs, harness.Spec{Workload: w.Name, Size: workloads.SizeSmall})
	}

	eng := new(harness.Engine)
	serial := make([]struct {
		checksum uint64
		cycles   uint64
	}, len(specs))
	for i, s := range specs {
		st, err := eng.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.String(), err)
		}
		serial[i].checksum, serial[i].cycles = st.Checksum, st.Cycles
	}

	results, err := new(harness.Engine).RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Stats.Checksum != serial[i].checksum || r.Stats.Cycles != serial[i].cycles {
			t.Errorf("%s: parallel (checksum %x, cycles %d) != serial (checksum %x, cycles %d)",
				specs[i].String(), r.Stats.Checksum, r.Stats.Cycles,
				serial[i].checksum, serial[i].cycles)
		}
	}
}
