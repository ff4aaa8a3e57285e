// Engine tests through the package's exported surface: the engine only
// executes the Codes its dispatcher hands it.
package interp_test

import (
	"errors"
	"testing"

	"strider/internal/arch"
	"strider/internal/classfile"
	"strider/internal/heap"
	"strider/internal/interp"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/telemetry"
	"strider/internal/value"
)

// tierDisp runs every method in one tier: on its interp.BuildInterpreted
// Code, or on an interp.Build Code built at its first invocation.
type tierDisp struct {
	p        *ir.Program
	compiled bool
	interp   []interp.Code
	codes    map[*ir.Method]*interp.Code
}

func (d *tierDisp) Invoke(m *ir.Method, args []value.Value) *interp.Code {
	c, ok := d.codes[m]
	if !ok {
		c = &d.interp[m.Index()]
		if d.compiled {
			c = interp.Build(m, m.Code, m.NumRegs, d.p.Universe)
		}
		d.codes[m] = c
	}
	return c
}

// interpOnly interprets every method.
const interpOnly = false

// compiledOnly marks everything as compiled (for cycle accounting tests).
const compiledOnly = true

func newEngine(p *ir.Program, compiled bool) *interp.Engine {
	machine := arch.Pentium4()
	h := heap.New(1<<20, p.Universe)
	mem := memsim.New(machine)
	disp := &tierDisp{p: p, compiled: compiled, interp: interp.BuildInterpreted(p),
		codes: make(map[*ir.Method]*interp.Code)}
	return interp.New(p, h, mem, disp, machine)
}

func emptyUniverse() *classfile.Universe { return classfile.NewUniverse() }

func TestArithmeticProgram(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	x := b.ConstInt(6)
	y := b.ConstInt(7)
	z := b.Arith(ir.OpMul, value.KindInt, x, y)
	b.Return(z)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Errorf("6*7 = %v", got)
	}
	if e.S.Instructions != 4 {
		t.Errorf("retired %d instructions, want 4", e.S.Instructions)
	}
}

func TestRecursionFactorial(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "fact", value.KindInt, value.KindInt)
	n := b.Param(0)
	one := b.ConstInt(1)
	base := b.NewLabel()
	b.Br(value.KindInt, ir.CondLE, n, one, base)
	nm1 := b.Arith(ir.OpSub, value.KindInt, n, one)
	sub := b.Call(b.Self(), nm1)
	r := b.Arith(ir.OpMul, value.KindInt, n, sub)
	b.Return(r)
	b.Bind(base)
	b.Return(one)
	fact := b.Finish()
	p.Entry = fact
	e := newEngine(p, interpOnly)
	got, err := e.Run(fact, []value.Value{value.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 3628800 {
		t.Errorf("10! = %v", got)
	}
}

func TestHeapObjectsAndArrays(t *testing.T) {
	u := emptyUniverse()
	c := u.MustDefineClass("Box", nil,
		classfile.FieldSpec{Name: "v", Kind: value.KindDouble},
		classfile.FieldSpec{Name: "arr", Kind: value.KindRef},
	)
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindDouble)
	box := b.New(c)
	pi := b.ConstDouble(3.25)
	b.PutField(box, c.FieldByName("v"), pi)
	ten := b.ConstInt(10)
	arr := b.NewArray(value.KindDouble, ten)
	b.PutField(box, c.FieldByName("arr"), arr)
	two := b.ConstInt(2)
	b.ArrayStore(value.KindDouble, arr, two, pi)
	arr2 := b.GetField(box, c.FieldByName("arr"))
	back := b.ArrayLoad(value.KindDouble, arr2, two)
	v := b.GetField(box, c.FieldByName("v"))
	sum := b.Arith(ir.OpAdd, value.KindDouble, back, v)
	ln := b.ArrayLen(arr2)
	lnd := b.Conv(value.KindDouble, ln)
	sum2 := b.Arith(ir.OpAdd, value.KindDouble, sum, lnd)
	b.Return(sum2)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Double() != 3.25+3.25+10 {
		t.Errorf("result = %v", got)
	}
}

func TestVirtualDispatch(t *testing.T) {
	u := emptyUniverse()
	base := u.MustDefineClass("Base", nil)
	sub := u.MustDefineClass("Sub", base)
	p := ir.NewProgram(u)

	bb := ir.NewBuilder(p, base, "tag", value.KindInt, value.KindRef)
	one := bb.ConstInt(1)
	bb.Return(one)
	bb.Finish()
	sb := ir.NewBuilder(p, sub, "tag", value.KindInt, value.KindRef)
	two := sb.ConstInt(2)
	sb.Return(two)
	sb.Finish()

	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	o1 := b.New(base)
	o2 := b.New(sub)
	t1 := b.CallVirt("tag", true, o1)
	t2 := b.CallVirt("tag", true, o2)
	ten := b.ConstInt(10)
	hi := b.Arith(ir.OpMul, value.KindInt, t1, ten)
	r := b.Arith(ir.OpAdd, value.KindInt, hi, t2)
	b.Return(r)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 12 {
		t.Errorf("dispatch result = %v, want 12", got)
	}
}

func runExpectError(t *testing.T, build func(b *ir.Builder), want error) {
	t.Helper()
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	build(b)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	_, err := e.Run(p.Entry, nil)
	if err == nil {
		t.Fatal("expected a trap")
	}
	var re *interp.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("not a RuntimeError: %v", err)
	}
	if want != nil && !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestTrapNullDeref(t *testing.T) {
	u := emptyUniverse()
	c := u.MustDefineClass("Box", nil, classfile.FieldSpec{Name: "v", Kind: value.KindInt})
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	null := b.ConstNull()
	v := b.GetField(null, c.FieldByName("v"))
	b.Return(v)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	if _, err := e.Run(p.Entry, nil); !errors.Is(err, interp.ErrNullDeref) {
		t.Errorf("err = %v", err)
	}
}

func TestTrapBounds(t *testing.T) {
	runExpectError(t, func(b *ir.Builder) {
		three := b.ConstInt(3)
		arr := b.NewArray(value.KindInt, three)
		five := b.ConstInt(5)
		v := b.ArrayLoad(value.KindInt, arr, five)
		b.Return(v)
	}, interp.ErrBounds)
}

func TestTrapNegativeArraySize(t *testing.T) {
	runExpectError(t, func(b *ir.Builder) {
		neg := b.ConstInt(-2)
		arr := b.NewArray(value.KindInt, neg)
		ln := b.ArrayLen(arr)
		b.Return(ln)
	}, interp.ErrNegativeSize)
}

func TestTrapDivZero(t *testing.T) {
	runExpectError(t, func(b *ir.Builder) {
		one := b.ConstInt(1)
		zero := b.ConstInt(0)
		q := b.Arith(ir.OpDiv, value.KindInt, one, zero)
		b.Return(q)
	}, ir.ErrDivZero)
}

func TestTrapStackOverflow(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "rec", value.KindInt, value.KindInt)
	r := b.Call(b.Self(), b.Param(0))
	b.Return(r)
	rec := b.Finish()
	p.Entry = rec
	e := newEngine(p, interpOnly)
	if _, err := e.Run(rec, []value.Value{value.Int(0)}); !errors.Is(err, interp.ErrStackOverflow) {
		t.Errorf("err = %v", err)
	}
}

func TestInstructionBudget(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "spin", value.KindInt)
	head := b.Here()
	b.Goto(head)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	e.MaxInstructions = 1000
	if _, err := e.Run(p.Entry, nil); !errors.Is(err, interp.ErrBudget) {
		t.Errorf("err = %v", err)
	}
}

func TestChecksumDeterministic(t *testing.T) {
	build := func() *ir.Program {
		p := ir.NewProgram(emptyUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		i := b.ConstInt(0)
		ten := b.ConstInt(10)
		cond := b.NewLabel()
		body := b.NewLabel()
		b.Goto(cond)
		b.Bind(body)
		b.Sink(i)
		b.IncInt(i, 1)
		b.Bind(cond)
		b.Br(value.KindInt, ir.CondLT, i, ten, body)
		b.Return(i)
		p.Entry = b.Finish()
		return p
	}
	var sums []uint64
	for k := 0; k < 2; k++ {
		p := build()
		e := newEngine(p, interpOnly)
		if _, err := e.Run(p.Entry, nil); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, e.S.Checksum)
	}
	if sums[0] == 0 || sums[0] != sums[1] {
		t.Errorf("checksums: %x vs %x", sums[0], sums[1])
	}
}

func TestGCDuringExecution(t *testing.T) {
	u := emptyUniverse()
	p := ir.NewProgram(u)
	// Allocate 1000 x 4KB arrays, keeping none: needs GC in a 1MB heap.
	b := ir.NewBuilder(p, nil, "churn", value.KindInt)
	i := b.ConstInt(0)
	n := b.ConstInt(1000)
	sz := b.ConstInt(1024)
	cond := b.NewLabel()
	body := b.NewLabel()
	b.Goto(cond)
	b.Bind(body)
	arr := b.NewArray(value.KindInt, sz)
	zero := b.ConstInt(0)
	b.ArrayStore(value.KindInt, arr, zero, i)
	b.IncInt(i, 1)
	b.Bind(cond)
	b.Br(value.KindInt, ir.CondLT, i, n, body)
	b.Return(i)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 1000 {
		t.Errorf("result = %v", got)
	}
	if e.S.GCs == 0 {
		t.Error("expected collections in a 1MB heap")
	}
	if e.S.GCCycles == 0 {
		t.Error("GC cycles must be charged")
	}
}

func TestGCKeepsFrameRootsAlive(t *testing.T) {
	u := emptyUniverse()
	c := u.MustDefineClass("Box", nil, classfile.FieldSpec{Name: "v", Kind: value.KindInt})
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	box := b.New(c)
	v77 := b.ConstInt(77)
	b.PutField(box, c.FieldByName("v"), v77)
	// Churn to force GC while box is live in a register.
	i := b.ConstInt(0)
	n := b.ConstInt(600)
	sz := b.ConstInt(1024)
	cond := b.NewLabel()
	body := b.NewLabel()
	b.Goto(cond)
	b.Bind(body)
	b.NewArray(value.KindInt, sz)
	b.IncInt(i, 1)
	b.Bind(cond)
	b.Br(value.KindInt, ir.CondLT, i, n, body)
	out := b.GetField(box, c.FieldByName("v"))
	b.Return(out)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.S.GCs == 0 {
		t.Fatal("test needs at least one GC")
	}
	if got.Int() != 77 {
		t.Errorf("live object lost across GC: %v", got)
	}
}

func TestSpecLoadNeverFaults(t *testing.T) {
	u := emptyUniverse()
	p := ir.NewProgram(u)
	m := &ir.Method{
		Name: "spec", NumRegs: 3,
		Code: []ir.Instr{
			{Op: ir.OpConst, Kind: value.KindRef, Dst: 0},                                             // null base
			{Op: ir.OpSpecLoad, Dst: 1, Addr: ir.AddrExpr{Base: 0, Index: ir.NoReg, Disp: 0x7FFF000}}, // far out of heap
			{Op: ir.OpPrefetch, Addr: ir.AddrExpr{Base: 0, Index: ir.NoReg, Disp: -4}},
			{Op: ir.OpReturn, A: 1},
		},
	}
	if err := ir.Validate(m); err != nil {
		t.Fatal(err)
	}
	p.Define(m)
	p.Entry = m
	e := newEngine(p, interpOnly)
	got, err := e.Run(m, nil)
	if err != nil {
		t.Fatalf("spec_load/prefetch must never trap: %v", err)
	}
	// The result must be a speculative maybe-pointer, not a real
	// reference: a KindRef here would become a GC root and a stale or
	// garbage word could crash or perturb the collector.
	if !got.IsSpecRef() || got.B != 0 {
		t.Errorf("guarded out-of-bounds spec_load must yield a zero specref, got %v", got)
	}
}

// TestSpecLoadResultInvisibleToGC is the regression test for the GC-root
// hazard: a spec_load result that happens to hold a non-pointer word must
// not be treated as a root when a later allocation triggers a collection.
// Before the KindSpecRef fix the collector panicked on the garbage root.
func TestSpecLoadResultInvisibleToGC(t *testing.T) {
	u := emptyUniverse()
	box := u.MustDefineClass("Box", nil, classfile.FieldSpec{Name: "v", Kind: value.KindInt})
	fv := box.FieldByName("v")
	p := ir.NewProgram(u)
	// Hand-assembled (the builder has no spec_load form): create a Box,
	// store 13, speculatively load the int field — the loaded word (13)
	// is not a valid heap address — then allocate in a loop until the
	// heap fills and collections run with the specref register live.
	m := &ir.Method{
		Name: "main", NumRegs: 8,
		Code: []ir.Instr{
			{Op: ir.OpNew, Class: box, Dst: 0},
			{Op: ir.OpConst, Kind: value.KindInt, Dst: 6, Imm: 13},
			{Op: ir.OpPutField, A: 0, B: 6, Field: fv},
			{Op: ir.OpSpecLoad, Dst: 1, Addr: ir.AddrExpr{Base: 0, Index: ir.NoReg, Disp: int32(fv.Offset)}},
			{Op: ir.OpConst, Kind: value.KindInt, Dst: 2, Imm: 0},
			{Op: ir.OpConst, Kind: value.KindInt, Dst: 3, Imm: 4096},
			{Op: ir.OpConst, Kind: value.KindInt, Dst: 7, Imm: 1},
			{Op: ir.OpGoto, Target: 10},
			{Op: ir.OpNew, Class: box, Dst: 4},
			{Op: ir.OpAdd, Kind: value.KindInt, Dst: 2, A: 2, B: 7},
			{Op: ir.OpBr, Kind: value.KindInt, Cond: ir.CondLT, A: 2, B: 3, Target: 8},
			{Op: ir.OpGetField, Dst: 5, A: 0, Field: fv},
			{Op: ir.OpReturn, A: 5},
		},
	}
	if err := ir.Validate(m); err != nil {
		t.Fatal(err)
	}
	p.Define(m)
	p.Entry = m

	e := newEngine(p, interpOnly)
	e.Heap = heap.New(1<<16, u) // small heap: force collections
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatalf("run with spec_load result live across GC: %v", err)
	}
	if e.S.GCs == 0 {
		t.Fatal("test needs at least one GC while the specref is live")
	}
	if got.Int() != 13 {
		t.Errorf("field corrupted: got %v, want 13", got)
	}
}

func TestCompiledVsInterpretedCycles(t *testing.T) {
	build := func() *ir.Program {
		p := ir.NewProgram(emptyUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		i := b.ConstInt(0)
		n := b.ConstInt(1000)
		cond := b.NewLabel()
		body := b.NewLabel()
		b.Goto(cond)
		b.Bind(body)
		b.IncInt(i, 1)
		b.Bind(cond)
		b.Br(value.KindInt, ir.CondLT, i, n, body)
		b.Return(i)
		p.Entry = b.Finish()
		return p
	}
	p1 := build()
	e1 := newEngine(p1, interpOnly)
	e1.Run(p1.Entry, nil)
	p2 := build()
	e2 := newEngine(p2, compiledOnly)
	e2.Run(p2.Entry, nil)
	if e1.S.Cycles <= e2.S.Cycles {
		t.Errorf("interpreted (%d cycles) must be slower than compiled (%d)", e1.S.Cycles, e2.S.Cycles)
	}
	if e2.S.CompiledCycles != e2.S.Cycles {
		t.Error("all-compiled run must attribute all cycles to compiled code")
	}
	if e1.S.CompiledCycles != 0 {
		t.Error("all-interpreted run must have no compiled cycles")
	}
}

func TestWrongArgCount(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "f", value.KindInt, value.KindInt)
	b.Return(b.Param(0))
	m := b.Finish()
	p.Entry = m
	e := newEngine(p, interpOnly)
	if _, err := e.Run(m, nil); err == nil {
		t.Error("arity mismatch must fail")
	}
}

// TestFlatMemKeepsArchitecture runs one program over the simulator and
// over FlatMem: the result, checksum and retirement count agree, FlatMem
// never pins the fast lane, and only the memory stalls leave the cycle
// count.
func TestFlatMemKeepsArchitecture(t *testing.T) {
	u := emptyUniverse()
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	n := b.ConstInt(64)
	arr := b.NewArray(value.KindInt, n)
	i := b.ConstInt(5)
	b.ArrayStore(value.KindInt, arr, i, n)
	v := b.ArrayLoad(value.KindInt, arr, i)
	b.Return(v)
	m := b.Finish()
	// A software prefetch of the array's first line, ahead of the return.
	ret := m.Code[len(m.Code)-1]
	m.Code = append(m.Code[:len(m.Code)-1], ir.Instr{Op: ir.OpPrefetch, Addr: ir.AddrExpr{Base: arr, Index: ir.NoReg}}, ret)
	if err := ir.Validate(m); err != nil {
		t.Fatal(err)
	}
	p.Entry = m

	run := func(flat bool) (value.Value, interp.Stats) {
		t.Helper()
		e := newEngine(p, interpOnly)
		if flat {
			e.SetMem(interp.FlatMem{})
			if e.FastMem() != nil {
				t.Fatal("FlatMem pinned as the fast lane")
			}
		}
		got, err := e.Run(p.Entry, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got, e.S
	}
	simV, sim := run(false)
	flatV, flat := run(true)
	if simV != flatV || simV.Int() != 64 {
		t.Errorf("results %v (simulated) and %v (flat), want 64", simV, flatV)
	}
	if sim.Instructions != flat.Instructions || sim.Checksum != flat.Checksum || sim.AllocBytes != flat.AllocBytes {
		t.Errorf("architectural stats diverged:\n simulated %+v\n flat      %+v", sim, flat)
	}
	if flat.Cycles >= sim.Cycles {
		t.Errorf("flat memory took %d cycles, the simulator %d: no stall was dropped", flat.Cycles, sim.Cycles)
	}
	if out := (interp.FlatMem{}).Prefetch(0, true, 0); out != telemetry.PrefetchFetched {
		t.Errorf("FlatMem prefetch reported %v, want a fill", out)
	}
}
