package static_test

import (
	"fmt"
	"reflect"
	"testing"

	"strider/internal/arch"
	"strider/internal/cfg"
	"strider/internal/classfile"
	"strider/internal/core/jit"
	"strider/internal/core/ldg"
	"strider/internal/dataflow"
	"strider/internal/heap"
	"strider/internal/ir"
	"strider/internal/static"
	"strider/internal/telemetry"
	"strider/internal/value"
)

// heapFixture is the jit-style fixture: a ref array of clustered objects
// whose scan loop dynamic inspection accepts, so a profiling run records a
// LOOP_ACCEPTED entry with real annotations.
type heapFixture struct {
	p    *ir.Program
	h    *heap.Heap
	m    *ir.Method
	args []value.Value
}

func newHeapFixture(t *testing.T, n uint32) *heapFixture {
	t.Helper()
	u := classfile.NewUniverse()
	specs := make([]classfile.FieldSpec, 0, 11)
	for i := 0; i < 10; i++ {
		specs = append(specs, classfile.FieldSpec{Name: fmt.Sprintf("pad%d", i), Kind: value.KindLong})
	}
	specs = append(specs, classfile.FieldSpec{Name: "val", Kind: value.KindInt})
	obj := u.MustDefineClass("Obj", nil, specs...)
	fVal := obj.FieldByName("val")
	h := heap.New(1<<20, u)
	arr, err := h.AllocArray(value.KindRef, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < n; i++ {
		o, _ := h.AllocObject(obj)
		h.Store4(o+fVal.Offset, i)
		h.Store4(h.ElemAddr(arr, i), o)
	}
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "scan", value.KindInt, value.KindRef, value.KindInt)
	arrR, nR := b.Param(0), b.Param(1)
	acc := b.ConstInt(0)
	i := b.ConstInt(0)
	cond, body := b.NewLabel(), b.NewLabel()
	b.Goto(cond)
	b.Bind(body)
	o := b.ArrayLoad(value.KindRef, arrR, i)
	v := b.GetField(o, fVal)
	b.ArithTo(acc, ir.OpAdd, value.KindInt, acc, v)
	b.IncInt(i, 1)
	b.Bind(cond)
	b.Br(value.KindInt, ir.CondLT, i, nR, body)
	b.Return(acc)
	m := b.Finish()
	return &heapFixture{p: p, h: h, m: m,
		args: []value.Value{value.Ref(arr), value.Int(int32(n))}}
}

// normalizeSrc strips the source marker so dynamic and replayed decision
// streams compare on substance.
func normalizeSrc(ds []telemetry.DecisionEvent) []telemetry.DecisionEvent {
	out := make([]telemetry.DecisionEvent, len(ds))
	for i, d := range ds {
		d.Src = ""
		out[i] = d
	}
	return out
}

// TestProfileRoundTrip: record a dynamic run's profile and replay it, the
// way every PGO cell consumes the in-memory profile its engine caches. The
// PGO compilation must make byte-identical prefetch decisions — same
// generated code, same stats, same decision stream — without a single
// inspection step.
func TestProfileRoundTrip(t *testing.T) {
	fx := newHeapFixture(t, 64)
	opts := jit.DefaultOptions(arch.Pentium4(), jit.InterIntra)
	prof := static.NewProfile()
	opts.RecordProfile = prof
	dynRec := &decisionLog{}
	opts.Rec = dynRec
	dyn := jit.Compile(fx.p, fx.h, fx.m, fx.args, opts)
	if prof.Len() == 0 {
		t.Fatal("profiling run recorded nothing")
	}

	pgoOpts := jit.DefaultOptions(arch.Pentium4(), jit.InterIntra)
	pgoOpts.Predict = jit.PredictPGO
	pgoOpts.Profile = prof
	pgoRec := &decisionLog{}
	pgoOpts.Rec = pgoRec
	pgo := jit.Compile(fx.p, fx.h, fx.m, fx.args, pgoOpts)

	if !reflect.DeepEqual(dyn.Code, pgo.Code) {
		t.Error("PGO replay must generate byte-identical code")
	}
	if dyn.Prefetch != pgo.Prefetch {
		t.Errorf("prefetch stats diverge: dyn %+v, pgo %+v", dyn.Prefetch, pgo.Prefetch)
	}
	if pgo.InspectSteps != 0 {
		t.Errorf("PGO replay ran %d inspection steps, want 0", pgo.InspectSteps)
	}
	if dyn.InspectSteps == 0 {
		t.Error("the dynamic run must have paid for inspection")
	}
	if !reflect.DeepEqual(normalizeSrc(dynRec.decisions), normalizeSrc(pgoRec.decisions)) {
		t.Errorf("decision streams diverge:\ndyn %+v\npgo %+v", dynRec.decisions, pgoRec.decisions)
	}
	for _, d := range pgoRec.decisions {
		if d.Src != static.PGOSource {
			t.Errorf("replayed decision %+v lacks the pgo source marker", d)
		}
	}
}

// TestProfileMissFallsBackToDynamic: with no usable profile entry the
// compiler emits LOOP_PGO_MISS and pays for dynamic inspection, ending at
// the same decisions a first run makes.
func TestProfileMissFallsBackToDynamic(t *testing.T) {
	fx := newHeapFixture(t, 64)
	dyn := jit.Compile(fx.p, fx.h, fx.m, fx.args, jit.DefaultOptions(arch.Pentium4(), jit.InterIntra))

	opts := jit.DefaultOptions(arch.Pentium4(), jit.InterIntra)
	opts.Predict = jit.PredictPGO
	opts.Profile = static.NewProfile() // empty: every loop misses
	rec := &loopLog{}
	opts.Rec = rec
	pgo := jit.Compile(fx.p, fx.h, fx.m, fx.args, opts)

	if !reflect.DeepEqual(dyn.Code, pgo.Code) || dyn.Prefetch != pgo.Prefetch {
		t.Error("a full profile miss must reproduce the dynamic compilation")
	}
	if pgo.InspectSteps == 0 {
		t.Error("the fallback must pay for inspection")
	}
	misses := 0
	for _, e := range rec.loops {
		if e.Verdict == telemetry.LoopPGOMiss {
			misses++
			if e.Src != static.PGOSource {
				t.Errorf("miss event src = %q, want pgo", e.Src)
			}
		}
	}
	if misses == 0 {
		t.Error("no LOOP_PGO_MISS emitted")
	}
}

type loopLog struct {
	telemetry.Nop
	loops []telemetry.LoopEvent
}

func (l *loopLog) Loop(e telemetry.LoopEvent) { l.loops = append(l.loops, e) }

// TestProfileStore covers the in-memory map semantics.
func TestProfileStore(t *testing.T) {
	p := static.NewProfile()
	if p.Len() != 0 || p.Loop("m", 1) != nil {
		t.Error("empty profile must be all misses")
	}
	var nilP *static.Profile
	if nilP.Loop("m", 1) != nil {
		t.Error("nil profile must be all misses")
	}
	a := &static.LoopProfile{Verdict: telemetry.LoopIncomplete}
	b := &static.LoopProfile{Verdict: telemetry.LoopAccepted}
	p.Record("m", 1, a)
	p.Record("m", 1, b) // last write wins
	p.Record("m", 7, a)
	p.Record("n", 1, a)
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
	if p.Loop("m", 1) != b || p.Loop("m", 7) != a || p.Loop("n", 1) != a {
		t.Error("lookups must return the recorded entries")
	}
	if p.Loop("m", 2) != nil || p.Loop("x", 1) != nil {
		t.Error("absent loops must be nil")
	}
}

// TestApplyStructureGuard: Apply refuses — leaving the graph untouched —
// whenever the recorded structure no longer matches the rebuilt graph, and
// only a LOOP_ACCEPTED record can be replayed.
func TestApplyStructureGuard(t *testing.T) {
	fx := newHeapFixture(t, 64)
	g := cfg.Build(fx.m)
	f := cfg.BuildLoops(g)
	df := dataflow.Reach(g)
	build := func() *ldg.Graph { return ldg.Build(fx.m, g, df, f.Loops[0], nil) }

	// A faithful record of the graph, hand-annotated with one accepted and
	// one rejected node so the replay exercises both arms; the edge carries
	// an accepted intra stride.
	lg := build()
	for i, n := range lg.Nodes {
		if i == 0 {
			n.HasInter, n.RawInter = false, 2 // dominant stride that failed the majority
			n.InterRatio, n.InterSamples = 0.4, 19
			continue
		}
		n.HasInter, n.Inter, n.RawInter = true, 96, 96
		n.InterRatio, n.InterSamples = 1, 19
	}
	for _, n := range lg.Nodes {
		for _, e := range n.Succs {
			e.HasIntra, e.Intra, e.RawIntra = true, 80, 80
			e.IntraRatio, e.IntraSamples = 1, 19
		}
	}
	good := static.RecordLoop(lg, telemetry.LoopAccepted, 20, false)

	mutate := func(f func(*static.LoopProfile)) *static.LoopProfile {
		cp := *good
		cp.Nodes = append([]static.NodeRecord(nil), good.Nodes...)
		cp.Edges = append([]static.EdgeRecord(nil), good.Edges...)
		f(&cp)
		return &cp
	}
	for _, tc := range []struct {
		name string
		lp   *static.LoopProfile
	}{
		{"nil", nil},
		{"wrong-verdict", mutate(func(lp *static.LoopProfile) { lp.Verdict = telemetry.LoopSmallTrip })},
		{"node-count", mutate(func(lp *static.LoopProfile) { lp.Nodes = lp.Nodes[1:] })},
		{"edge-count", mutate(func(lp *static.LoopProfile) { lp.Edges = append(lp.Edges, static.EdgeRecord{From: 98, To: 99}) })},
		{"node-instr", mutate(func(lp *static.LoopProfile) { lp.Nodes[0].Instr = 1000 })},
		{"edge-pair", mutate(func(lp *static.LoopProfile) { lp.Edges[0].From = 1000 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := build()
			if static.Apply(fresh, tc.lp, nil) {
				t.Fatal("Apply must refuse a mismatched record")
			}
			for _, n := range fresh.Nodes {
				if n.HasInter || n.Inter != 0 {
					t.Error("a refused Apply must leave the graph untouched")
				}
			}
		})
	}

	t.Run("match", func(t *testing.T) {
		fresh := build()
		rec := &decisionLog{}
		if !static.Apply(fresh, good, rec) {
			t.Fatal("faithful record must apply")
		}
		for i, n := range fresh.Nodes {
			if i == 0 {
				if n.HasInter || n.Inter != 0 || n.RawInter != 2 || n.InterSamples != 19 {
					t.Errorf("rejected node %d not replayed: %+v", n.Instr, n)
				}
				continue
			}
			if !n.HasInter || n.Inter != 96 || n.RawInter != 96 || n.InterSamples != 19 {
				t.Errorf("node %d annotations not replayed: %+v", n.Instr, n)
			}
		}
		edges := 0
		for _, n := range fresh.Nodes {
			for _, e := range n.Succs {
				edges++
				if !e.HasIntra || e.Intra != 80 || e.RawIntra != 80 {
					t.Errorf("edge annotations not replayed: %+v", e)
				}
			}
		}
		if edges == 0 {
			t.Fatal("fixture graph must have an edge")
		}
		// The rejected node replays its FILTER_NO_PATTERN diagnostic — raw
		// stride and statistics intact — marked with the pgo source.
		if len(rec.decisions) != 1 {
			t.Fatalf("decisions = %+v, want exactly the rejected node's", rec.decisions)
		}
		d := rec.decisions[0]
		if d.Src != static.PGOSource || d.Reason != telemetry.FilterNoPattern ||
			d.Stride != 2 || d.Samples != 19 || d.Pair != -1 {
			t.Errorf("replayed decision %+v: want FILTER_NO_PATTERN src=pgo stride=2", d)
		}
	})

	t.Run("match-nil-recorder", func(t *testing.T) {
		if !static.Apply(build(), good, nil) {
			t.Error("a nil recorder must not change the verdict")
		}
	})
}
