package oracle

import (
	"fmt"
	"strings"
	"testing"

	"strider/internal/arch"
	"strider/internal/classfile"
	"strider/internal/heap"
	"strider/internal/interp"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/value"
	"strider/internal/workloads"
)

// TestVerifyAllWorkloads is the headline differential suite: every
// registered workload, four software-prefetching configurations, every
// hardware-prefetcher model, plus the prediction-source matrix (three
// prefetch-emitting configurations under static and PGO prediction), both
// machines, leak checks and memory-model invariants included. Any semantic
// effect of prefetching — software or hardware, dynamically inspected or
// statically mispredicted — anywhere in the stack fails here. Every cell
// runs all its activations, interpreted and compiled, as threaded
// micro-ops, so any divergence of those from the reference interpreter
// fails here too. The
// workload subtests run in parallel: each Verify builds its own programs,
// heaps and simulators.
func TestVerifyAllWorkloads(t *testing.T) {
	wantCells := 4*len(memsim.HWModels())*2 + 3*2*2 // hw matrix + predict matrix
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			build := func() *ir.Program { return w.Build(workloads.SizeSmall) }
			rep, err := Verify(build, Options{HeapBytes: w.HeapBytes})
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if !rep.OK() {
				t.Fatalf("%s", rep.Summary())
			}
			if len(rep.Cells) != wantCells {
				t.Fatalf("got %d cells, want %d (4 sw configs x %d hw models x 2 machines + 12 predict cells)",
					len(rep.Cells), wantCells, len(memsim.HWModels()))
			}
			if rep.Reference.Loads == 0 {
				t.Fatalf("workload performed no demand loads; fingerprint is vacuous")
			}
		})
	}
}

// trapProgram builds a tiny program that traps in the given way. The
// differ must agree with the oracle on the trap class for every
// configuration: prefetching must not change *how* a program fails.
func trapProgram(kind string) *ir.Program {
	u := classfile.NewUniverse()
	box := u.MustDefineClass("Box", nil, classfile.FieldSpec{Name: "v", Kind: value.KindInt})
	fV := box.FieldByName("v")
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	switch kind {
	case TrapNullDeref:
		n := b.ConstNull()
		b.Return(b.GetField(n, fV))
	case TrapBounds:
		arr := b.NewArray(value.KindInt, b.ConstInt(4))
		b.Return(b.ArrayLoad(value.KindInt, arr, b.ConstInt(9)))
	case TrapNegativeSize:
		arr := b.NewArray(value.KindInt, b.ConstInt(-3))
		b.Return(b.ArrayLen(arr))
	case TrapDivZero:
		b.Return(b.Arith(ir.OpDiv, value.KindInt, b.ConstInt(1), b.ConstInt(0)))
	case TrapStackOverflow:
		b.Return(b.Call(b.Self()))
	case TrapOutOfMemory:
		// Heap in the differ options is 64 KiB; this wants 4 MiB.
		arr := b.NewArray(value.KindInt, b.ConstInt(1<<20))
		b.Return(b.ArrayLen(arr))
	default:
		panic("unknown trap kind " + kind)
	}
	p.Entry = b.Finish()
	return p
}

func TestVerifyTrappingPrograms(t *testing.T) {
	for _, class := range []string{
		TrapNullDeref, TrapBounds, TrapNegativeSize,
		TrapDivZero, TrapStackOverflow, TrapOutOfMemory,
	} {
		class := class
		t.Run(class, func(t *testing.T) {
			opts := Options{Machines: []*arch.Machine{arch.Pentium4()}}
			if class == TrapOutOfMemory {
				opts.HeapBytes = 1 << 16
			}
			rep, err := Verify(func() *ir.Program { return trapProgram(class) }, opts)
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if rep.Reference.Trap != class {
				t.Fatalf("oracle trapped %q, want %q", rep.Reference.Trap, class)
			}
			if !rep.OK() {
				t.Fatalf("%s", rep.Summary())
			}
		})
	}
}

func TestTrapClassMapping(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, TrapNone},
		{fmt.Errorf("x: %w", interp.ErrNullDeref), TrapNullDeref},
		{fmt.Errorf("x: %w", interp.ErrBounds), TrapBounds},
		{fmt.Errorf("x: %w", interp.ErrNegativeSize), TrapNegativeSize},
		{fmt.Errorf("x: %w", ir.ErrDivZero), TrapDivZero},
		{fmt.Errorf("x: %w", interp.ErrBadValue), TrapBadOperand},
		{fmt.Errorf("x: %w", ir.ErrBadOperand), TrapBadOperand},
		{fmt.Errorf("x: %w", interp.ErrStackOverflow), TrapStackOverflow},
		{fmt.Errorf("x: %w", interp.ErrNoMethod), TrapNoMethod},
		{fmt.Errorf("x: %w", heap.ErrOutOfMemory), TrapOutOfMemory},
		{fmt.Errorf("x: %w", interp.ErrBudget), TrapBudget},
		{fmt.Errorf("something else"), "something else"},
	}
	for _, tc := range cases {
		if got := TrapClass(tc.err); got != tc.want {
			t.Errorf("TrapClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

func TestConfigurations(t *testing.T) {
	cs := Configurations(arch.Machines())
	if len(cs) != 8 {
		t.Fatalf("got %d configurations, want 8", len(cs))
	}
	labels := make(map[string]bool)
	var ip int
	for _, c := range cs {
		labels[c.Label()] = true
		if c.Interprocedural {
			ip++
		}
		// The default matrix runs the default hardware model, so its labels
		// carry no hw suffix — they must match the pre-zoo label format.
		if strings.Contains(c.Label(), "+hw:") {
			t.Fatalf("default configuration label %q carries a hw suffix", c.Label())
		}
	}
	if len(labels) != 8 {
		t.Fatalf("labels not unique: %v", labels)
	}
	if ip != 2 {
		t.Fatalf("want one interprocedural configuration per machine, got %d", ip)
	}
}

func TestConfigurationsHW(t *testing.T) {
	models := memsim.HWModels()
	cs := ConfigurationsHW(arch.Machines(), models)
	want := 4 * len(models) * 2
	if len(cs) != want {
		t.Fatalf("got %d configurations, want %d", len(cs), want)
	}
	labels := make(map[string]bool)
	for _, c := range cs {
		labels[c.Label()] = true
	}
	if len(labels) != want {
		t.Fatalf("labels not unique: %d labels for %d configurations", len(labels), want)
	}
}

func TestVerifyRejectsUnknownHWModel(t *testing.T) {
	build := func() *ir.Program { return trapProgram(TrapDivZero) }
	_, err := Verify(build, Options{HWModels: []string{"stream", "sdram"}})
	if err == nil || !strings.Contains(err.Error(), "sdram") {
		t.Fatalf("want unknown-model error naming the model, got %v", err)
	}
}

func TestReportSummary(t *testing.T) {
	ok := &Report{Cells: make([]Cell, 8)}
	if !ok.OK() || !strings.Contains(ok.Summary(), "verified") {
		t.Fatalf("Summary() = %q", ok.Summary())
	}
	bad := &Report{Mismatches: []string{"P4/inter: heap bytes: 1 vs 2"}}
	if bad.OK() {
		t.Fatalf("report with mismatches reported OK")
	}
	if s := bad.Summary(); !strings.Contains(s, "FAILED") || !strings.Contains(s, "heap bytes") {
		t.Fatalf("Summary() = %q", s)
	}
}

// TestCompileLeakCheck runs the inspection-leak check directly on the
// paper's motivating workload for both machines.
func TestCompileLeakCheck(t *testing.T) {
	w, err := workloads.ByName("jess")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range arch.Machines() {
		build := func() *ir.Program { return w.Build(workloads.SizeSmall) }
		if leaks := CompileLeakCheck(build, m, w.HeapBytes, heap.GCSlidingCompact); len(leaks) > 0 {
			t.Fatalf("%s: %v", m.Name, leaks)
		}
	}
}

// TestVerifyVirtualDispatch covers the oracle's virtual-call resolution
// against the engine's: a small class hierarchy where the hot loop's
// behaviour depends on each receiver's dynamic class.
func TestVerifyVirtualDispatch(t *testing.T) {
	build := func() *ir.Program {
		u := classfile.NewUniverse()
		base := u.MustDefineClass("Base", nil, classfile.FieldSpec{Name: "k", Kind: value.KindInt})
		derived := u.MustDefineClass("Derived", base)
		fK := base.FieldByName("k")
		p := ir.NewProgram(u)

		bb := ir.NewBuilder(p, base, "tag", value.KindInt, value.KindRef)
		bb.Return(bb.GetField(bb.Param(0), fK))
		bb.Finish()

		db := ir.NewBuilder(p, derived, "tag", value.KindInt, value.KindRef)
		v := db.GetField(db.Param(0), fK)
		db.Return(db.Arith(ir.OpMul, value.KindInt, v, db.ConstInt(3)))
		db.Finish()

		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		n := b.ConstInt(64)
		arr := b.NewArray(value.KindRef, n)
		i := b.ConstInt(0)
		two := b.ConstInt(2)
		cond, body, isOdd, store := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.Goto(cond)
		b.Bind(body)
		rem := b.Arith(ir.OpRem, value.KindInt, i, two)
		b.BrIntZero(ir.CondNE, rem, isOdd)
		o1 := b.New(base)
		b.PutField(o1, fK, i)
		b.ArrayStore(value.KindRef, arr, i, o1)
		b.Goto(store)
		b.Bind(isOdd)
		o2 := b.New(derived)
		b.PutField(o2, fK, i)
		b.ArrayStore(value.KindRef, arr, i, o2)
		b.Bind(store)
		b.IncInt(i, 1)
		b.Bind(cond)
		b.Br(value.KindInt, ir.CondLT, i, n, body)

		sum := b.ConstInt(0)
		b.SetInt(i, 0)
		c2, b2 := b.NewLabel(), b.NewLabel()
		b.Goto(c2)
		b.Bind(b2)
		o := b.ArrayLoad(value.KindRef, arr, i)
		tg := b.CallVirt("tag", true, o)
		b.ArithTo(sum, ir.OpAdd, value.KindInt, sum, tg)
		b.IncInt(i, 1)
		b.Bind(c2)
		b.Br(value.KindInt, ir.CondLT, i, n, b2)
		b.Sink(sum)
		b.Return(sum)
		p.Entry = b.Finish()
		return p
	}
	rep, err := Verify(build, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%s", rep.Summary())
	}
	// even i: k=i, odd i: 3i -> sum = sum(even i) + 3*sum(odd i)
	want := int32(0)
	for i := int32(0); i < 64; i++ {
		if i%2 == 0 {
			want += i
		} else {
			want += 3 * i
		}
	}
	if !rep.Reference.Result.Equal(value.Int(want)) {
		t.Fatalf("result %v, want %d", rep.Reference.Result, want)
	}
}

// TestVerifyMixedKinds exercises long/float/double arithmetic, wide
// array elements, conversions and negation through the whole matrix.
func TestVerifyMixedKinds(t *testing.T) {
	build := func() *ir.Program {
		u := classfile.NewUniverse()
		p := ir.NewProgram(u)
		b := ir.NewBuilder(p, nil, "main", value.KindLong)
		n := b.ConstInt(128)
		da := b.NewArray(value.KindDouble, n)
		la := b.NewArray(value.KindLong, n)
		i := b.ConstInt(0)
		cond, body := b.NewLabel(), b.NewLabel()
		b.Goto(cond)
		b.Bind(body)
		d := b.Conv(value.KindDouble, i)
		d2 := b.Arith(ir.OpMul, value.KindDouble, d, b.ConstDouble(1.5))
		b.ArrayStore(value.KindDouble, da, i, d2)
		l := b.Conv(value.KindLong, i)
		l2 := b.Arith(ir.OpShl, value.KindLong, l, b.ConstLong(3))
		b.ArrayStore(value.KindLong, la, i, l2)
		b.IncInt(i, 1)
		b.Bind(cond)
		b.Br(value.KindInt, ir.CondLT, i, n, body)

		acc := b.ConstLong(0)
		facc := b.ConstDouble(0)
		b.SetInt(i, 0)
		c2, b2 := b.NewLabel(), b.NewLabel()
		b.Goto(c2)
		b.Bind(b2)
		dv := b.ArrayLoad(value.KindDouble, da, i)
		b.ArithTo(facc, ir.OpAdd, value.KindDouble, facc, dv)
		lv := b.ArrayLoad(value.KindLong, la, i)
		nl := b.Neg(value.KindLong, lv)
		b.ArithTo(acc, ir.OpSub, value.KindLong, acc, nl)
		b.IncInt(i, 1)
		b.Bind(c2)
		b.Br(value.KindInt, ir.CondLT, i, n, b2)
		b.Sink(facc)
		fl := b.Conv(value.KindLong, facc)
		b.ArithTo(acc, ir.OpAdd, value.KindLong, acc, fl)
		b.Sink(acc)
		b.Return(acc)
		p.Entry = b.Finish()
		return p
	}
	rep, err := Verify(build, Options{Machines: []*arch.Machine{arch.AthlonMP()}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%s", rep.Summary())
	}
}
