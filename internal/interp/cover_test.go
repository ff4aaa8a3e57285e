// Coverage completions: micro-kinds and error paths the broader
// differential programs do not reach naturally.
package interp

import (
	"testing"

	"strider/internal/classfile"
	"strider/internal/ir"
	"strider/internal/value"
)

// TestIntBranchKinds drives every specialized int-branch micro-kind down
// both its taken and fall-through edges.
func TestIntBranchKinds(t *testing.T) {
	for _, cond := range []ir.Cond{ir.CondEQ, ir.CondNE, ir.CondLT, ir.CondLE, ir.CondGT, ir.CondGE} {
		cond := cond
		t.Run(cond.String(), func(t *testing.T) {
			_, err := runBoth(t, func() *ir.Program {
				p := ir.NewProgram(classfile.NewUniverse())
				b := ir.NewBuilder(p, nil, "main", value.KindInt)
				x := b.ConstInt(3)
				y := b.ConstInt(5)
				acc := b.ConstInt(0)
				taken := b.NewLabel()
				after := b.NewLabel()
				b.Br(value.KindInt, cond, x, y, taken)
				b.IncInt(acc, 1)
				b.Goto(after)
				b.Bind(taken)
				b.IncInt(acc, 2)
				b.Bind(after)
				// Same comparison with equal operands flips EQ/NE/LE/GE.
				end := b.NewLabel()
				b.Br(value.KindInt, cond, x, x, end)
				b.IncInt(acc, 4)
				b.Bind(end)
				b.Return(acc)
				p.Entry = b.Finish()
				return p
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnaryErrorPaths(t *testing.T) {
	for name, emit := range map[string]func(b *ir.Builder, null ir.Reg){
		"neg-of-ref-kind": func(b *ir.Builder, null ir.Reg) { b.Neg(value.KindRef, null) },
		"conv-of-ref":     func(b *ir.Builder, null ir.Reg) { b.Conv(value.KindLong, null) },
	} {
		emit := emit
		t.Run(name, func(t *testing.T) {
			_, err := runBoth(t, func() *ir.Program {
				p := ir.NewProgram(classfile.NewUniverse())
				b := ir.NewBuilder(p, nil, "main", value.KindInt)
				null := b.ConstNull()
				emit(b, null)
				zero := b.ConstInt(0)
				b.Return(zero)
				p.Entry = b.Finish()
				return p
			}, nil)
			if err == nil {
				t.Fatal("kind-mismatched unary op did not trap")
			}
		})
	}
}

func TestNopDispatch(t *testing.T) {
	_, err := runBoth(t, patchedProg(func(m *ir.Method, at int, s []ir.Reg) {
		m.Code[at] = ir.Instr{Op: ir.OpNop}
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Between two memory ops the nop fuses with nothing and takes its own
	// dispatch.
	_, err = runBoth(t, patchedProg(func(m *ir.Method, at int, s []ir.Reg) {
		put := m.Code[at-2]
		m.Code[at-1] = ir.Instr{Op: ir.OpGetField, Dst: s[2], A: s[0], Field: put.Field}
		m.Code[at] = ir.Instr{Op: ir.OpNop}
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestVoidReturns runs a void entry method that calls a void callee, so a
// void return retires both nested in the loop and as the bottom frame of
// a step.
func TestVoidReturns(t *testing.T) {
	s, err := runBoth(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		var touch *ir.Method
		{
			b := ir.NewBuilder(p, nil, "touch", value.KindInvalid, value.KindInt)
			b.Sink(b.Param(0))
			b.ReturnVoid()
			touch = b.Finish()
		}
		b := ir.NewBuilder(p, nil, "main", value.KindInvalid)
		b.Call(touch, b.ConstInt(3))
		b.Call(touch, b.ConstInt(4))
		b.ReturnVoid()
		p.Entry = b.Finish()
		return p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Checksum == 0 {
		t.Error("the callee's sinks did not reach the checksum")
	}
}

// TestOutOfMemory exhausts the heap with live objects so AllocObject
// itself fails (GC finds everything reachable), covering the allocation
// trap path with the accumulator flush/reload around it.
func TestOutOfMemory(t *testing.T) {
	_, err := runBoth(t, func() *ir.Program {
		u := classfile.NewUniverse()
		cls := u.MustDefineClass("Fat", nil,
			classfile.FieldSpec{Name: "a", Kind: value.KindLong},
			classfile.FieldSpec{Name: "b", Kind: value.KindLong},
			classfile.FieldSpec{Name: "c", Kind: value.KindLong},
			classfile.FieldSpec{Name: "d", Kind: value.KindLong},
		)
		p := ir.NewProgram(u)
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		n := b.ConstInt(1 << 16)
		arr := b.NewArray(value.KindRef, n) // keeps every object live
		i := b.ConstInt(0)
		cond := b.NewLabel()
		body := b.NewLabel()
		b.Goto(cond)
		b.Bind(body)
		obj := b.New(cls)
		b.ArrayStore(value.KindRef, arr, i, obj)
		b.IncInt(i, 1)
		b.Bind(cond)
		b.Br(value.KindInt, ir.CondLT, i, n, body)
		b.Return(i)
		p.Entry = b.Finish()
		return p
	}, nil)
	if err == nil {
		t.Fatal("live-heap churn did not exhaust the 1 MiB heap")
	}
}

// TestRecordedPrefetches runs JIT-shaped prefetch and speculative-load
// instructions with a Recorder installed, so the NotePrefetch attribution
// paths execute in both tiers.
func TestRecordedPrefetches(t *testing.T) {
	for _, in := range []ir.Instr{
		{Op: ir.OpSpecLoad, Addr: ir.AddrExpr{Index: ir.NoReg}, Site: 1},
		{Op: ir.OpPrefetch, Addr: ir.AddrExpr{Index: ir.NoReg}, Site: 3},
	} {
		build := patchedProg(func(m *ir.Method, at int, s []ir.Reg) {
			in.Dst, in.Addr.Base = s[3], s[0]
			m.Code[at] = in
		})
		run := func(threaded bool) (value.Value, Stats, int, error) {
			p := build()
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
			t.Errorf("%s: result diverged: %v vs %v", in.Op, ri, rc)
		}
		diffStats(t, si, sc)
		if ni != nc || ni == 0 {
			t.Errorf("%s: flushed %d site events on the reference, %d threaded", in.Op, ni, nc)
		}
	}
}

// TestSlowLaneAccesses runs every heap-addressed micro-kind, and an array
// walk that serves headers from the memo, with the simulator behind the
// MemModel interface, in both tiers.
func TestSlowLaneAccesses(t *testing.T) {
	for _, build := range []func() *ir.Program{fieldProg, arrayWalkProg} {
		for _, tier := range tiers {
			if _, err := runBothLane(t, build, nil, true, tier.compiled); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// arrayWalkProg fills an array and sums it back, addressing the same array
// on consecutive accesses.
func arrayWalkProg() *ir.Program {
	p := ir.NewProgram(classfile.NewUniverse())
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	n := b.ConstInt(16)
	arr := b.NewArray(value.KindInt, n)
	i, acc := b.ConstInt(0), b.ConstInt(0)
	fill, sum, done := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Bind(fill)
	b.Br(value.KindInt, ir.CondGE, i, n, sum)
	b.ArrayStore(value.KindInt, arr, i, i)
	b.IncInt(i, 1)
	b.Goto(fill)
	b.Bind(sum)
	b.Br(value.KindInt, ir.CondLE, i, b.ConstInt(0), done)
	b.IncInt(i, -1)
	b.ArithTo(acc, ir.OpAdd, value.KindInt, acc, b.ArrayLoad(value.KindInt, arr, i))
	b.Goto(sum)
	b.Bind(done)
	b.Return(acc)
	p.Entry = b.Finish()
	return p
}

func TestArrayWalk(t *testing.T) {
	if _, err := runBoth(t, arrayWalkProg, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnfusedEntries branches into the middle of fused runs, so a nop and
// a move execute as their own micro-kinds, and takes a greater-than branch
// both ways.
func TestUnfusedEntries(t *testing.T) {
	_, err := runBoth(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		i, n, x := b.ConstInt(0), b.ConstInt(3), b.ConstInt(0)
		top, move, done := b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.Goto(move)
		b.Bind(top)
		nop(b)
		b.Bind(move)
		b.MoveTo(x, i)
		b.IncInt(i, 1)
		b.Br(value.KindInt, ir.CondGT, i, n, done)
		b.Goto(top)
		b.Bind(done)
		b.Return(x)
		p.Entry = b.Finish()
		return p
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestBudgetInFusedRun sweeps the instruction budget across a fused run
// of every fusible kind, so fusedSlow executes each sub-op before the trap
// lands on a later one.
func TestBudgetInFusedRun(t *testing.T) {
	build := func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		x := b.ConstInt(2)
		y := b.NewReg()
		b.MoveTo(y, x)
		b.Sink(y)
		z := b.Arith(ir.OpMul, value.KindInt, x, y)
		nop(b)
		w := b.Arith(ir.OpSub, value.KindInt, z, x)
		b.Sink(w)
		b.Return(w)
		p.Entry = b.Finish()
		return p
	}
	for budget := uint64(1); budget <= 9; budget++ {
		for _, tier := range tiers {
			pi := build()
			ei := newEngine(pi, refDisp{tier.compiled})
			ei.MaxInstructions = budget
			ri, erri := ei.Run(pi.Entry, nil)
			pc := build()
			ec := newEngine(pc, newThreadedDisp(pc, nil, tier.compiled))
			ec.MaxInstructions = budget
			rc, errc := ec.Run(pc.Entry, nil)
			if ri != rc {
				t.Errorf("%s, budget %d: result diverged: %v vs %v", tier.name, budget, ri, rc)
			}
			diffErr(t, erri, errc)
			diffStats(t, ei.S, ec.S)
		}
	}
}

// nop appends a no-op at the builder's position (the builder has no nop
// form).
func nop(b *ir.Builder) { b.Self().Code = append(b.Self().Code, ir.Instr{Op: ir.OpNop}) }
