// Differential tests for the threaded execution tier: every program runs
// twice on otherwise identical engines — once through the reference
// interpreter (refCode, one ir.Instr at a time) and once through the
// pre-decoded micro-op stream — and the results, traps, and the full
// cycle/instruction accounting must agree bit for bit, in each tier's
// accounting. The VM runs every activation threaded, so this is where the
// micro-ops are compared with the reference directly, small enough to pin
// each micro-kind and trap path individually.
package interp

import (
	"errors"
	"fmt"
	"testing"

	"strider/internal/arch"
	"strider/internal/classfile"
	"strider/internal/heap"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/telemetry"
	"strider/internal/value"
)

// tiers lists both execution tiers a differential test runs under: the
// interpreted tier's accounting charges the machine's interpretation
// penalty and credits nothing to the compiled-code counters.
var tiers = []struct {
	name     string
	compiled bool
}{{"interpreted", false}, {"compiled", true}}

// refDisp runs every method on the reference interpreter in one tier.
type refDisp struct{ compiled bool }

func (d refDisp) Invoke(m *ir.Method, args []value.Value) *Code {
	return refCode(m, d.compiled)
}

// threadedDisp runs methods selected by want on threaded artifacts in one
// tier, as the VM builds them: BuildInterpreted's for interpreted code,
// Build's (cached) for compiled code. A nil want threads everything;
// unselected methods run on the reference interpreter in the same tier.
type threadedDisp struct {
	p        *ir.Program
	want     func(*ir.Method) bool
	compiled bool
	interp   []Code
	codes    map[*ir.Method]*Code
}

// newThreadedDisp builds p's interpreted artifacts, so p's code must be
// final.
func newThreadedDisp(p *ir.Program, want func(*ir.Method) bool, compiled bool) *threadedDisp {
	return &threadedDisp{p: p, want: want, compiled: compiled,
		interp: BuildInterpreted(p), codes: make(map[*ir.Method]*Code)}
}

func (d *threadedDisp) Invoke(m *ir.Method, args []value.Value) *Code {
	if c, ok := d.codes[m]; ok {
		return c
	}
	var c *Code
	switch {
	case d.want != nil && !d.want(m):
		c = refDisp{d.compiled}.Invoke(m, args)
	case d.compiled:
		c = Build(m, m.Code, m.NumRegs, d.p.Universe)
	default:
		c = &d.interp[m.Index()]
	}
	d.codes[m] = c
	return c
}

func newEngine(p *ir.Program, disp Dispatcher) *Engine {
	machine := arch.Pentium4()
	return New(p, heap.New(1<<20, p.Universe), memsim.New(machine), disp, machine)
}

// newLaneEngine is newEngine with slow choosing the memory lane. A slow
// engine's simulator is hidden behind the MemModel interface: SetMem pins
// only a bare *memsim.Memory, so every access takes the interface path
// instead of the inline hit lane.
func newLaneEngine(p *ir.Program, disp Dispatcher, slow bool) *Engine {
	e := newEngine(p, disp)
	if slow {
		e.SetMem(struct{ MemModel }{e.Mem})
	}
	return e
}

// runBoth executes a freshly built program under the reference and the
// threaded tier, once per tier's accounting, and fails the test on any
// divergence in result, trap, or accounting. It returns the (identical)
// stats and error of the compiled run for extra assertions.
func runBoth(t *testing.T, build func() *ir.Program, args []value.Value) (Stats, error) {
	t.Helper()
	runBothLane(t, build, args, false, false)
	return runBothLane(t, build, args, false, true)
}

// runBothLane is one tier of runBoth on the memory lane slow selects.
// An interpreted run must credit nothing to the compiled-code counters.
func runBothLane(t *testing.T, build func() *ir.Program, args []value.Value, slow, compiled bool) (Stats, error) {
	t.Helper()
	pi := build()
	ei := newLaneEngine(pi, refDisp{compiled}, slow)
	ri, erri := ei.Run(pi.Entry, args)

	pc := build()
	ec := newLaneEngine(pc, newThreadedDisp(pc, nil, compiled), slow)
	rc, errc := ec.Run(pc.Entry, args)

	if ri != rc {
		t.Errorf("result diverged: reference %v, threaded %v", ri, rc)
	}
	diffErr(t, erri, errc)
	diffStats(t, ei.S, ec.S)
	if !compiled && (ec.S.CompiledCycles != 0 || ec.S.CompiledInstructions != 0) {
		t.Errorf("interpreted run credited compiled code: %+v", ec.S)
	}
	return ec.S, errc
}

func diffErr(t *testing.T, erri, errc error) {
	t.Helper()
	if (erri == nil) != (errc == nil) {
		t.Fatalf("trap diverged: reference %v, threaded %v", erri, errc)
	}
	if erri == nil {
		return
	}
	var ri, rc *RuntimeError
	if !errors.As(erri, &ri) || !errors.As(errc, &rc) {
		t.Fatalf("non-runtime error: reference %v, threaded %v", erri, errc)
	}
	if ri.Method.QName() != rc.Method.QName() || ri.PC != rc.PC || ri.Err.Error() != rc.Err.Error() {
		t.Errorf("trap attribution diverged:\n reference %s@%d: %v\n threaded  %s@%d: %v",
			ri.Method.QName(), ri.PC, ri.Err, rc.Method.QName(), rc.PC, rc.Err)
	}
}

func diffStats(t *testing.T, a, b Stats) {
	t.Helper()
	if a != b {
		t.Errorf("stats diverged:\n reference %+v\n threaded  %+v", a, b)
	}
}

// --- straight-line arithmetic, fusion, and the generic fallbacks ---

func TestFusedArithmetic(t *testing.T) {
	s, err := runBoth(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		// A maximal fusible run: consts, int arith, a move, a sink.
		x := b.ConstInt(6)
		y := b.ConstInt(7)
		z := b.Arith(ir.OpMul, value.KindInt, x, y)
		w := b.Arith(ir.OpSub, value.KindInt, z, x)
		v := b.AddInt(w, y)
		b.MoveTo(x, v)
		b.Sink(x)
		b.Return(x)
		p.Entry = b.Finish()
		return p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Instructions != 8 {
		t.Errorf("retired %d instructions, want 8", s.Instructions)
	}
	if s.CompiledInstructions != s.Instructions {
		t.Errorf("compiled tier retired %d of %d instructions", s.CompiledInstructions, s.Instructions)
	}
}

func TestBranchIntoFusedRun(t *testing.T) {
	// The loop header lands in the middle of what fuse() packs into a
	// single dispatch; sub-ops keep their own micro-kinds, so re-entering
	// the run mid-way must execute exactly the tail.
	_, err := runBoth(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		n := b.ConstInt(5)
		i := b.ConstInt(0)
		acc := b.ConstInt(0)
		mid := b.NewLabel()
		b.Bind(mid) // branch target inside the const/add run
		b.ArithTo(acc, ir.OpAdd, value.KindInt, acc, i)
		b.IncInt(i, 1)
		b.Br(value.KindInt, ir.CondLT, i, n, mid)
		b.Return(acc)
		p.Entry = b.Finish()
		return p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGenericArithmetic(t *testing.T) {
	_, err := runBoth(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		// Non-int kinds and the non-fused int ops all take the cold
		// opBinGeneric/opNeg/opConv chain.
		l := b.ConstLong(1 << 40)
		l2 := b.Arith(ir.OpAdd, value.KindLong, l, l)
		l3 := b.Arith(ir.OpSub, value.KindLong, l2, b.ConstLong(3))
		f := b.ConstFloat(1.5)
		f2 := b.Arith(ir.OpMul, value.KindFloat, f, f)
		d := b.ConstDouble(2.25)
		d2 := b.Arith(ir.OpDiv, value.KindDouble, d, d)
		x := b.ConstInt(1000)
		y := b.ConstInt(7)
		q := b.Arith(ir.OpDiv, value.KindInt, x, y)
		r := b.Arith(ir.OpRem, value.KindInt, x, y)
		a := b.Arith(ir.OpAnd, value.KindInt, x, y)
		o := b.Arith(ir.OpOr, value.KindInt, x, y)
		xo := b.Arith(ir.OpXor, value.KindInt, x, y)
		sl := b.Arith(ir.OpShl, value.KindInt, x, y)
		sr := b.Arith(ir.OpShr, value.KindInt, x, y)
		us := b.Arith(ir.OpUshr, value.KindInt, x, y)
		ng := b.Neg(value.KindInt, x)
		cv := b.Conv(value.KindInt, d2)
		li := b.Conv(value.KindInt, l2)
		fi := b.Conv(value.KindInt, f2)
		si := b.Conv(value.KindInt, l3)
		for _, reg := range []ir.Reg{q, r, a, o, xo, sl, sr, us, ng, cv, li, fi, si} {
			b.Sink(reg)
		}
		sum := b.AddInt(q, r)
		b.Return(sum)
		p.Entry = b.Finish()
		return p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGenericBranches(t *testing.T) {
	_, err := runBoth(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		// Long and double comparisons dispatch through opBrGeneric.
		x := b.ConstLong(9)
		y := b.ConstLong(10)
		d := b.ConstDouble(1.5)
		e := b.ConstDouble(2.5)
		la := b.NewLabel()
		lb := b.NewLabel()
		miss := b.NewLabel()
		b.Br(value.KindLong, ir.CondLT, x, y, la)
		b.Goto(miss)
		b.Bind(la)
		b.Br(value.KindDouble, ir.CondGT, d, e, miss)
		b.Goto(lb)
		b.Bind(lb)
		one := b.ConstInt(1)
		b.Return(one)
		b.Bind(miss)
		zero := b.ConstInt(0)
		b.Return(zero)
		p.Entry = b.Finish()
		return p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDivByZeroTrap(t *testing.T) {
	_, err := runBoth(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		x := b.ConstInt(1)
		z := b.ConstInt(0)
		q := b.Arith(ir.OpDiv, value.KindInt, x, z)
		b.Return(q)
		p.Entry = b.Finish()
		return p
	}, nil)
	if err == nil {
		t.Fatal("division by zero did not trap")
	}
}

// --- objects, arrays, and statics ---

// fieldProg defines a class with a narrow and a wide field plus a static,
// and exercises every heap-addressed micro-kind on it.
func fieldProg() *ir.Program {
	u := classfile.NewUniverse()
	cls := u.MustDefineClass("Box", nil,
		classfile.FieldSpec{Name: "i", Kind: value.KindInt},
		classfile.FieldSpec{Name: "l", Kind: value.KindLong},
		classfile.FieldSpec{Name: "g", Kind: value.KindInt, Static: true},
	)
	stat := cls.FieldByName("g")
	fI := cls.FieldByName("i")
	fL := cls.FieldByName("l")

	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	box := b.New(cls)
	seven := b.ConstInt(7)
	big := b.ConstLong(1 << 33)
	b.PutField(box, fI, seven)
	b.PutField(box, fL, big)
	gi := b.GetField(box, fI)
	gl := b.GetField(box, fL)
	b.Sink(gl)
	b.PutStatic(stat, gi)
	gs := b.GetStatic(stat)

	n := b.ConstInt(4)
	arr := b.NewArray(value.KindInt, n)
	larr := b.NewArray(value.KindLong, n)
	idx := b.ConstInt(2)
	b.ArrayStore(value.KindInt, arr, idx, gs)
	b.ArrayStore(value.KindLong, larr, idx, gl)
	ai := b.ArrayLoad(value.KindInt, arr, idx)
	al := b.ArrayLoad(value.KindLong, larr, idx)
	b.Sink(al)
	ln := b.ArrayLen(arr)
	sum := b.AddInt(ai, ln)
	b.Return(sum)
	p.Entry = b.Finish()
	return p
}

func TestFieldsArraysStatics(t *testing.T) {
	s, err := runBoth(t, fieldProg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycles == 0 || s.Checksum == 0 {
		t.Errorf("degenerate run: %+v", s)
	}
}

// --- calls: compiled-to-compiled, mixed tiers, virtual dispatch ---

func callProg() *ir.Program {
	u := classfile.NewUniverse()
	cls := u.MustDefineClass("C", nil,
		classfile.FieldSpec{Name: "x", Kind: value.KindInt},
	)
	fX := cls.FieldByName("x")
	p := ir.NewProgram(u)

	// C::get(this) -> int
	{
		b := ir.NewBuilder(p, cls, "get", value.KindInt, value.KindRef)
		this := b.Param(0)
		v := b.GetField(this, fX)
		b.Return(v)
		b.Finish()
	}
	// C::bump(this) — void return through the nested path.
	{
		b := ir.NewBuilder(p, cls, "bump", value.KindInvalid, value.KindRef)
		this := b.Param(0)
		v := b.GetField(this, fX)
		one := b.ConstInt(1)
		nv := b.AddInt(v, one)
		b.PutField(this, fX, nv)
		b.ReturnVoid()
		b.Finish()
	}
	// ::fact(n) -> int — direct recursion.
	var fact *ir.Method
	{
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
		fact = b.Finish()
	}
	// ::main
	{
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		obj := b.New(cls)
		five := b.ConstInt(5)
		b.PutField(obj, fX, five)
		b.CallVirt("bump", false, obj)
		got := b.CallVirt("get", true, obj)
		f := b.Call(fact, five)
		sum := b.AddInt(got, f)
		b.Return(sum)
		p.Entry = b.Finish()
	}
	return p
}

func TestCallsNestedCompiled(t *testing.T) {
	s, err := runBoth(t, callProg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Instructions == 0 {
		t.Error("no instructions retired")
	}
}

// TestMixedTiers threads only a subset of methods, so threaded frames call
// into reference callees and reference frames call into threaded ones —
// nested in one loop and resumed from Run after a return — in each tier's
// accounting.
func TestMixedTiers(t *testing.T) {
	for name, want := range map[string]func(*ir.Method) bool{
		"threaded-caller": func(m *ir.Method) bool { return m.Name == "main" },
		"threaded-callee": func(m *ir.Method) bool { return m.Name != "main" },
	} {
		t.Run(name, func(t *testing.T) {
			for _, tier := range tiers {
				pi := callProg()
				ei := newEngine(pi, refDisp{tier.compiled})
				ri, erri := ei.Run(pi.Entry, nil)

				pm := callProg()
				em := newEngine(pm, newThreadedDisp(pm, want, tier.compiled))
				rm, errm := em.Run(pm.Entry, nil)

				if ri != rm {
					t.Errorf("%s: result diverged: reference %v, mixed %v", tier.name, ri, rm)
				}
				diffErr(t, erri, errm)
				diffStats(t, ei.S, em.S)
			}
		})
	}
	t.Run("recompile", testRecompile)
}

// recompileDisp is the VM's dispatch shape: every method starts
// interpreted and switches to compiled code at its nth invocation. Frames
// pushed before the switch keep their interpreted artifact. A threaded
// dispatcher hands out the VM's artifacts; otherwise both tiers run on
// the reference.
type recompileDisp struct {
	n        int
	threaded bool
	interp   *threadedDisp
	compiled *threadedDisp
	counts   map[*ir.Method]int
}

func newRecompileDisp(p *ir.Program, n int, threaded bool) *recompileDisp {
	return &recompileDisp{n: n, threaded: threaded, counts: make(map[*ir.Method]int),
		interp: newThreadedDisp(p, nil, false), compiled: newThreadedDisp(p, nil, true)}
}

func (d *recompileDisp) Invoke(m *ir.Method, args []value.Value) *Code {
	d.counts[m]++
	compiled := d.counts[m] >= d.n
	switch {
	case !d.threaded:
		return refDisp{compiled}.Invoke(m, args)
	case compiled:
		return d.compiled.Invoke(m, args)
	}
	return d.interp.Invoke(m, args)
}

// recProg is main calling rec(6), where rec(n) returns rec(n-1) + leaf(n)
// and rec(0) returns 0: a recursion that calls a second method on the way
// back up.
func recProg() *ir.Program {
	p := ir.NewProgram(classfile.NewUniverse())
	var leaf, rec *ir.Method
	{
		b := ir.NewBuilder(p, nil, "leaf", value.KindInt, value.KindInt)
		n := b.Param(0)
		r := b.Arith(ir.OpMul, value.KindInt, n, n)
		b.Sink(r)
		b.Return(r)
		leaf = b.Finish()
	}
	{
		b := ir.NewBuilder(p, nil, "rec", value.KindInt, value.KindInt)
		n := b.Param(0)
		bottom := b.NewLabel()
		b.BrIntZero(ir.CondEQ, n, bottom)
		r := b.Call(b.Self(), b.AddInt(n, b.ConstInt(-1)))
		x := b.Call(leaf, n)
		sum := b.AddInt(r, x)
		b.Return(sum)
		b.Bind(bottom)
		b.Return(b.ConstInt(0))
		rec = b.Finish()
	}
	{
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		b.Return(b.Call(rec, b.ConstInt(6)))
		p.Entry = b.Finish()
	}
	return p
}

// testRecompile switches methods from interpreted to compiled at their nth
// invocation, for every n that lands inside the recursion. With rec(6)
// recursing seven deep, live interpreted frames of rec sit under compiled
// ones; the compiled rec frames call leaf while it is still interpreted,
// and the interpreted ones call it once it is compiled, so calls and
// returns cross tiers in both directions.
func testRecompile(t *testing.T) {
	const want = 91 // 1² + 2² + ... + 6²
	for n := 1; n <= 8; n++ {
		t.Run(fmt.Sprintf("at-%d", n), func(t *testing.T) {
			run := func(threaded bool) (value.Value, Stats, error) {
				p := recProg()
				e := newEngine(p, newRecompileDisp(p, n, threaded))
				r, err := e.Run(p.Entry, nil)
				return r, e.S, err
			}
			ri, si, erri := run(false)
			rc, sc, errc := run(true)
			diffErr(t, erri, errc)
			if errc != nil {
				t.Fatal(errc)
			}
			if ri != rc || rc.Int() != want {
				t.Errorf("results: reference %v, threaded %v, want %d", ri, rc, want)
			}
			diffStats(t, si, sc)
			// rec runs seven activations: n = 1 compiles everything, n = 8
			// nothing, and every n between mixes the tiers.
			compiled, mixed := sc.CompiledCycles == sc.Cycles, 0 < sc.CompiledCycles && sc.CompiledCycles < sc.Cycles
			if (n == 1 && !compiled) || (n > 1 && n < 8 && !mixed) || (n == 8 && sc.CompiledCycles != 0) {
				t.Errorf("%d of %d cycles compiled", sc.CompiledCycles, sc.Cycles)
			}
		})
	}
}

func TestVirtualDispatchFailure(t *testing.T) {
	_, err := runBoth(t, func() *ir.Program {
		u := classfile.NewUniverse()
		cls := u.MustDefineClass("D", nil,
			classfile.FieldSpec{Name: "x", Kind: value.KindInt},
		)
		p := ir.NewProgram(u)
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		obj := b.New(cls)
		r := b.CallVirt("noSuchMethod", true, obj)
		b.Return(r)
		p.Entry = b.Finish()
		return p
	}, nil)
	if !errors.Is(err, ErrNoMethod) {
		t.Fatalf("err = %v, want ErrNoMethod", err)
	}
}

func TestStackOverflow(t *testing.T) {
	_, err := runBoth(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "loop", value.KindInt)
		r := b.Call(b.Self())
		b.Return(r)
		p.Entry = b.Finish()
		return p
	}, nil)
	if !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want ErrStackOverflow", err)
	}
}

// TestDeepRecursionGrowsStack recurses far past the frame stack's initial
// capacity, so pushes grow and move it mid-run, and collects at the
// deepest call, so the collector's roots walk the grown stack. Each frame
// keeps a live node in a register and reads it back after its callee
// returns: a frame lost in growth, or a register root the collector did
// not forward, changes the sum or traps.
func TestDeepRecursionGrowsStack(t *testing.T) {
	const depth = 200
	build := func() *ir.Program {
		u := classfile.NewUniverse()
		node := u.MustDefineClass("Node", nil,
			classfile.FieldSpec{Name: "val", Kind: value.KindInt},
			classfile.FieldSpec{Name: "next", Kind: value.KindRef},
		)
		fVal, fNext := node.FieldByName("val"), node.FieldByName("next")
		p := ir.NewProgram(u)
		// rec(n, link) allocates a node {n, link}; above the bottom it
		// returns rec(n-1, node) + node.val.
		b := ir.NewBuilder(p, nil, "rec", value.KindInt, value.KindInt, value.KindRef)
		n, link := b.Param(0), b.Param(1)
		obj := b.New(node)
		b.PutField(obj, fVal, n)
		b.PutField(obj, fNext, link)
		bottom := b.NewLabel()
		b.BrIntZero(ir.CondEQ, n, bottom)
		n1 := b.AddInt(n, b.ConstInt(-1))
		r := b.Call(b.Self(), n1, obj)
		sum := b.AddInt(r, b.GetField(obj, fVal))
		b.Sink(sum)
		b.Return(sum)

		// The bottom churns through more than the 1 MiB heap, forcing a
		// collection with every frame live, then sums the whole chain.
		b.Bind(bottom)
		i, lim, sz := b.ConstInt(0), b.ConstInt(2000), b.ConstInt(256)
		churn, churned := b.NewLabel(), b.NewLabel()
		b.Bind(churn)
		b.Br(value.KindInt, ir.CondGE, i, lim, churned)
		b.NewArray(value.KindInt, sz)
		b.IncInt(i, 1)
		b.Goto(churn)
		b.Bind(churned)
		acc, cur, null := b.ConstInt(0), b.NewReg(), b.ConstNull()
		b.MoveTo(cur, obj)
		walk, walked := b.NewLabel(), b.NewLabel()
		b.Bind(walk)
		b.Br(value.KindRef, ir.CondEQ, cur, null, walked)
		b.ArithTo(acc, ir.OpAdd, value.KindInt, acc, b.GetField(cur, fVal))
		b.GetFieldTo(cur, cur, fNext)
		b.Goto(walk)
		b.Bind(walked)
		b.Return(acc)
		p.Entry = b.Finish()
		return p
	}
	args := []value.Value{value.Int(depth), value.Null}
	s, err := runBoth(t, build, args)
	if err != nil {
		t.Fatal(err)
	}
	if s.GCs == 0 {
		t.Fatal("no collection ran at the deepest call")
	}
	// runBoth pinned the two tiers' results equal; pin the value. The
	// bottom's chain walk and the returns up the stack each add
	// depth + ... + 1 + 0.
	p := build()
	got, err := newEngine(p, newThreadedDisp(p, nil, true)).Run(p.Entry, args)
	if err != nil {
		t.Fatal(err)
	}
	if want := int32(depth * (depth + 1)); got.Int() != want {
		t.Fatalf("result %d, want %d", got.Int(), want)
	}
}

// --- allocation pressure: GC interleaving and heap exhaustion ---

func TestAllocationChurn(t *testing.T) {
	s, err := runBoth(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		// Allocate far more than the 1 MiB heap holds, keeping nothing
		// live: the micro-ops' flush/reload around AllocArray (and
		// any GC it triggers) must keep accounting identical.
		n := b.ConstInt(4000)
		sz := b.ConstInt(256)
		i := b.ConstInt(0)
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
		return p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.GCs == 0 {
		t.Skip("heap never filled; GC path not exercised at this size")
	}
}

// --- recorder attribution: NoteLoad / NotePrefetch paths ---

// siteCounter counts Site events flushed by the engine.
type siteCounter struct {
	telemetry.Nop
	sites int
}

func (s *siteCounter) Site(telemetry.SiteEvent) { s.sites++ }

func TestRecorderAttribution(t *testing.T) {
	run := func(threaded bool) (value.Value, Stats, int, error) {
		p := fieldProg()
		var disp Dispatcher = refDisp{true}
		if threaded {
			disp = newThreadedDisp(p, nil, true)
		}
		e := newEngine(p, disp)
		rec := &siteCounter{}
		e.Rec = rec
		r, err := e.Run(p.Entry, nil)
		e.FlushSites()
		return r, e.S, rec.sites, err
	}
	ri, si, ni, erri := run(false)
	rc, sc, nc, errc := run(true)
	if erri != nil || errc != nil {
		t.Fatal(erri, errc)
	}
	if ri != rc {
		t.Errorf("result diverged: %v vs %v", ri, rc)
	}
	diffStats(t, si, sc)
	if ni != nc {
		t.Errorf("flushed %d site events on the reference, %d threaded", ni, nc)
	}
}
