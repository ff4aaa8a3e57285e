package interp

import (
	"fmt"

	"strider/internal/classfile"
	"strider/internal/ir"
	"strider/internal/value"
)

// refCode builds the reference Code the micro-ops are tested against: a
// Code whose every micro-op is the cold op opRef, which hands the frame to
// refStep. The dispatch loop only enters it (after the same budget check
// refStep makes first), so every instruction is decoded and executed by
// refStep alone. Reference frames nest in the loop like any Code of their
// tier, so they mix freely with threaded frames.
func refCode(m *ir.Method, compiled bool) *Code {
	n := len(m.Code)
	c := &Code{m: m, ops: make([]uop, n), cold: make([]uopCold, n),
		siteBase: uint64(m.Index()+1) << 16, numRegs: m.NumRegs, compiled: compiled}
	for i := range c.ops {
		c.ops[i].pc = int32(i)
		c.cold[i].fn = opRef
	}
	return c
}

// opRef runs the bound frame on refStep from its pc until it returns,
// calls or traps, with the loop's accumulators published around it.
func opRef(t *thread, u *uop, d *uopCold) int {
	t.flushAcc()
	v, done, err := refStep(t.e, t.f)
	t.load()
	switch {
	case err != nil:
		t.err = err
		return ctrlTrap
	case done:
		t.ret = v
		return ctrlReturn
	}
	return ctrlCall
}

// refStep is the reference interpreter: a straightforward executor that
// re-decodes one ir.Instr at a time, written only against the engine's
// frame, allocation and attribution primitives. It charges the accounting
// of the frame's tier — issue cycles plus, for interpreted code, the
// machine's interpretation penalty, credited to the compiled-code
// counters only for compiled code — and returns at every call. f.pc is
// synchronized on every exit so trap attribution is exact.
func refStep(e *Engine, f *frame) (value.Value, bool, error) {
	code := f.m.Code
	compiled := f.code.compiled
	regs := f.regs
	pc := f.pc
	// (method index + 1) << 16 keeps load-site pc 0 reserved for "no
	// stable site" and gives each method a private 64K instruction window.
	siteBase := uint64(f.m.Index()+1) << 16
	perInstr := e.Machine.IssueCycles
	if !compiled {
		perInstr += e.Machine.InterpPenalty
	}
	rec := e.Rec != nil
	fm := e.FastMem()

	fail := func(err error) (value.Value, bool, error) {
		f.pc = pc
		return value.Value{}, false, err
	}
	charge := func(extra uint64) {
		cost := perInstr + extra
		e.S.Cycles += cost
		e.S.Instructions++
		if compiled {
			e.S.CompiledCycles += cost
			e.S.CompiledInstructions++
		}
	}
	load := func(addr, size uint32) uint64 {
		if fm != nil {
			if stall, hit := fm.LoadHit(addr, e.S.Cycles); hit {
				return stall
			}
			return fm.LoadAt(addr, size, e.S.Cycles, siteBase|uint64(pc))
		}
		return e.Mem.LoadAt(addr, size, e.S.Cycles, siteBase|uint64(pc))
	}
	store := func(addr, size uint32) uint64 {
		if fm != nil {
			if stall, hit := fm.StoreHit(addr, e.S.Cycles); hit {
				return stall
			}
			return fm.Store(addr, size, e.S.Cycles)
		}
		return e.Mem.Store(addr, size, e.S.Cycles)
	}
	readHeap := func(k value.Kind, addr uint32) value.Value {
		if k == value.KindLong || k == value.KindDouble {
			return value.Value{K: k, B: e.Heap.Load8(addr)}
		}
		return value.Value{K: k, B: uint64(e.Heap.Load4(addr))}
	}
	elemAddr := func(arr, idx value.Value) (uint32, error) {
		if !arr.IsRef() || idx.K != value.KindInt {
			return 0, ErrBadValue
		}
		if arr.IsNull() {
			return 0, ErrNullDeref
		}
		a := arr.Ref()
		n := e.Heap.ArrayLen(a)
		i := idx.Int()
		if i < 0 || uint32(i) >= n {
			return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, n)
		}
		return a + classfile.HeaderBytes + uint32(i)*e.Heap.ClassOf(a).ElemSize, nil
	}
	writeHeap := func(addr uint32, v value.Value) {
		if v.K == value.KindLong || v.K == value.KindDouble {
			e.Heap.Store8(addr, v.B)
		} else {
			e.Heap.Store4(addr, v.Bits())
		}
	}

	for {
		if e.S.Instructions >= e.MaxInstructions {
			return fail(ErrBudget)
		}
		in := &code[pc]
		next := pc + 1
		var memStall uint64

		switch in.Op {
		case ir.OpNop:
		case ir.OpConst:
			regs[in.Dst] = constValue(in)
		case ir.OpMove:
			regs[in.Dst] = regs[in.A]
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr,
			ir.OpXor, ir.OpShl, ir.OpShr, ir.OpUshr:
			v, err := ir.EvalBinary(in.Op, in.Kind, regs[in.A], regs[in.B])
			if err != nil {
				return fail(err)
			}
			regs[in.Dst] = v
		case ir.OpNeg:
			v, err := ir.EvalUnary(in.Op, in.Kind, regs[in.A])
			if err != nil {
				return fail(err)
			}
			regs[in.Dst] = v
		case ir.OpConv:
			v, err := ir.Convert(in.Kind, regs[in.A])
			if err != nil {
				return fail(err)
			}
			regs[in.Dst] = v

		case ir.OpGoto:
			next = in.Target
		case ir.OpBr:
			taken, err := ir.EvalCond(in.Cond, in.Kind, regs[in.A], regs[in.B])
			if err != nil {
				return fail(err)
			}
			if taken {
				next = in.Target
			}
		case ir.OpReturn:
			charge(0)
			f.pc = pc
			if in.A == ir.NoReg {
				return value.Value{}, true, nil
			}
			return regs[in.A], true, nil

		case ir.OpGetField, ir.OpPutField:
			obj := regs[in.A]
			if !obj.IsRef() {
				return fail(ErrBadValue)
			}
			if obj.IsNull() {
				return fail(ErrNullDeref)
			}
			addr := obj.Ref() + in.Field.Offset
			if in.Op == ir.OpGetField {
				memStall = load(addr, in.Field.Kind.Size())
				regs[in.Dst] = readHeap(in.Field.Kind, addr)
			} else {
				memStall = store(addr, in.Field.Kind.Size())
				writeHeap(addr, regs[in.B])
			}
		case ir.OpGetStatic:
			regs[in.Dst] = e.Prog.Universe.GetStatic(in.Field)
		case ir.OpPutStatic:
			e.Prog.Universe.SetStatic(in.Field, regs[in.A])

		case ir.OpArrayLoad:
			addr, err := elemAddr(regs[in.A], regs[in.B])
			if err != nil {
				return fail(err)
			}
			memStall = load(addr, in.Kind.Size())
			regs[in.Dst] = readHeap(in.Kind, addr)
		case ir.OpArrayStore:
			addr, err := elemAddr(regs[in.A], regs[in.B])
			if err != nil {
				return fail(err)
			}
			memStall = store(addr, in.Kind.Size())
			writeHeap(addr, regs[in.C])
		case ir.OpArrayLen:
			arr := regs[in.A]
			if !arr.IsRef() {
				return fail(ErrBadValue)
			}
			if arr.IsNull() {
				return fail(ErrNullDeref)
			}
			addr := arr.Ref() + classfile.AuxOffset
			memStall = load(addr, 4)
			regs[in.Dst] = value.Int(int32(e.Heap.Load4(addr)))

		case ir.OpNew:
			addr, err := e.allocObject(in.Class)
			if err != nil {
				return fail(err)
			}
			regs[in.Dst] = value.Ref(addr)
		case ir.OpNewArray:
			n := regs[in.A]
			if n.K != value.KindInt {
				return fail(ErrBadValue)
			}
			if n.Int() < 0 {
				return fail(ErrNegativeSize)
			}
			addr, err := e.allocArray(in.Kind, uint32(n.Int()))
			if err != nil {
				return fail(err)
			}
			regs[in.Dst] = value.Ref(addr)

		case ir.OpCall, ir.OpCallVirt:
			callee := in.Callee
			if in.Op == ir.OpCallVirt {
				recv := regs[in.Args[0]]
				if !recv.IsRef() {
					return fail(ErrBadValue)
				}
				if recv.IsNull() {
					return fail(ErrNullDeref)
				}
				c := e.Heap.ClassOf(recv.Ref())
				callee = e.Prog.LookupVirtual(c, in.Name)
				if callee == nil {
					return fail(fmt.Errorf("%w: %s on %s", ErrNoMethod, in.Name, c.Name))
				}
			}
			charge(4) // call overhead
			args := e.argBuf(len(in.Args))
			for i, a := range in.Args {
				args[i] = regs[a]
			}
			f.pc = next
			if err := e.pushCall(callee, args, in.Dst); err != nil {
				return value.Value{}, false, err
			}
			return value.Value{}, false, nil

		case ir.OpSink:
			e.sink(regs[in.A])

		case ir.OpPrefetch, ir.OpSpecLoad:
			addr, ok := e.prefetchAddr(regs, in.Addr)
			if ok {
				out := e.Mem.Prefetch(addr, in.Guarded || in.Op == ir.OpSpecLoad, e.S.Cycles)
				if rec {
					e.notePrefetch(f.m, int(in.Site), out)
				}
			}
			if in.Op == ir.OpSpecLoad {
				// A maybe-pointer, never a GC root; zero when the guard
				// rejects the address.
				regs[in.Dst] = value.SpecRef(0)
				if ok {
					regs[in.Dst] = value.SpecRef(e.Heap.Load4(addr))
				}
			}
		default:
			return fail(fmt.Errorf("interp: unimplemented op %s: %w", in.Op, ir.ErrBadOperand))
		}

		if rec && memStall != 0 {
			switch in.Op {
			case ir.OpGetField, ir.OpArrayLoad, ir.OpArrayLen:
				e.noteLoad(f.m, pc, memStall)
			}
		}
		charge(memStall)
		pc = next
	}
}
