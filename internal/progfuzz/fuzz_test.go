package progfuzz

import (
	"testing"

	"strider/internal/ir"
	"strider/internal/oracle"
)

// FuzzDifferential is the structure-aware differential fuzzer: each seed
// expands to a deterministic program, which must produce identical
// architectural fingerprints through the reference oracle and through the
// full JIT+memsim stack under every prefetching configuration on both
// machines — including the prediction-source cells, where statically
// mispredicted or profile-replayed prefetches must be architecturally
// invisible — with inspection-leak and memory-model invariants asserted.
//
// The committed corpus (testdata/fuzz/FuzzDifferential) pins one seed per
// scenario plus composed shapes, so plain `go test` already runs the
// whole matrix; `go test -fuzz=FuzzDifferential` explores further seeds.
//
// Each seed verifies once. Every fingerprint field is architectural and
// no architectural decision reads simulated cycles, so the memory hit
// lane cannot move a fingerprint; the differ's load tap still drives the
// lane's inline probes in every cell, under memsim's self-check and
// invariants. That the lane leaves cycles and memory counters unchanged
// too is internal/vm's TestHitLaneUnobservable.
func FuzzDifferential(f *testing.F) {
	for seed := uint64(0); seed < NumScenarios; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		build := func() *ir.Program { return Program(seed) }
		// 8 MiB heap: small enough to exercise GC on allocation-heavy
		// shapes, comfortably large for every generated program.
		rep, err := oracle.Verify(build, oracle.Options{HeapBytes: 8 << 20})
		if err != nil {
			t.Fatalf("%s: %v", Describe(seed), err)
		}
		if !rep.OK() {
			t.Fatalf("%s:\n%s", Describe(seed), rep.Summary())
		}
		if rep.Reference.Trap != oracle.TrapNone {
			t.Fatalf("%s: generated program trapped (%s); generator must be trap-free",
				Describe(seed), rep.Reference.Trap)
		}
	})
}

// TestGeneratorDeterministic: a seed must expand to byte-identical code
// forever — the corpus depends on it.
func TestGeneratorDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 2*NumScenarios; seed++ {
		a, b := Program(seed), Program(seed)
		am, bm := a.Methods(), b.Methods()
		if len(am) != len(bm) {
			t.Fatalf("seed %d: method count %d vs %d", seed, len(am), len(bm))
		}
		for i := range am {
			if am[i].Disassemble() != bm[i].Disassemble() {
				t.Fatalf("seed %d: method %s differs between expansions", seed, am[i].QName())
			}
		}
		if a.Entry == nil {
			t.Fatalf("seed %d: no entry", seed)
		}
	}
}

// TestGeneratedProgramsWellFormed sweeps a wider seed range than the
// corpus through the oracle alone (cheap): everything must validate,
// terminate without a trap, and actually touch memory.
func TestGeneratedProgramsWellFormed(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		p := Program(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", Describe(seed), err)
		}
		fp, err := oracle.Run(p, nil, oracle.Config{HeapBytes: 8 << 20})
		if err != nil {
			t.Fatalf("%s: %v", Describe(seed), err)
		}
		if fp.Trap != oracle.TrapNone {
			t.Fatalf("%s: trap %q", Describe(seed), fp.Trap)
		}
		if fp.Loads == 0 {
			t.Fatalf("%s: no demand loads; shape is vacuous", Describe(seed))
		}
	}
}

// TestScenarioCoverage pins the adversarial shapes the issue calls for to
// their seeds, so corpus pruning can't silently drop one.
func TestScenarioCoverage(t *testing.T) {
	want := map[uint64]string{
		1: "list-short-chain", 2: "list-early-exit", 3: "list-alloc-in-loop",
		5: "array-stride-0", 7: "array-line-alias", 8: "nested-small-trip",
		12: "array-phased-stride",
	}
	for seed, name := range want {
		if d := Describe(seed); !contains(d, name) {
			t.Errorf("seed %d: %s does not cover %q", seed, d, name)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
