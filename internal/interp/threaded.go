package interp

import (
	"fmt"

	"strider/internal/classfile"
	"strider/internal/ir"
	"strider/internal/value"
)

// Control codes returned in place of a next pc.
const (
	ctrlReturn = -1 // frame done; thread.ret holds the value
	ctrlCall   = -2 // callee frame pushed; continue it or yield to Run
	ctrlTrap   = -3 // trap; thread.err holds the cause, f.pc the pc
)

// opFn executes one cold micro-op and returns the next pc or a control
// code.
type opFn func(t *thread, u *uop, d *uopCold) int

// Micro-kinds. mkSlow marks the cold tail dispatched through the side
// table's fn; every other kind is handled inline by the step switch. The
// fusible kinds (trap-free, memory-free, straight-line) come first so
// fuse() can test them with one comparison.
const (
	mkSlow uint8 = iota

	// Fusible kinds — keep contiguous, bounded by mkSink.
	mkNop
	mkConst
	mkMove
	mkAddInt
	mkSubInt
	mkMulInt
	mkSink

	mkFused

	mkGoto
	mkBrEQInt
	mkBrNEInt
	mkBrLTInt
	mkBrLEInt
	mkBrGTInt
	mkBrGEInt
	mkRetVoid
	mkRetVal

	mkGetField4
	mkGetField8
	mkPutField
	mkGetStatic
	mkPutStatic
	mkArrayLoad4
	mkArrayLoad8
	mkArrayStore
	mkArrayLen
)

// fusible reports whether mk belongs to the fused run vocabulary.
func fusible(mk uint8) bool { return mk >= mkNop && mk <= mkSink }

// uop is one pre-decoded micro-op: the hot record the dispatch loop
// walks. It is laid out to fit a cache line (56 bytes); operands the hot
// cases never touch live in the parallel uopCold table. Which fields are
// live depends on mk; pc is always the op's own instruction index (trap
// attribution and load-site identity), next the fall-through successor —
// except for a fusion head, where next is the first pc past the run and
// n the run length. fk preserves a fusion head's own kind so a branch
// into the middle of a run still executes each sub-op exactly.
type uop struct {
	val value.Value // pre-materialized OpConst payload

	next   int32
	target int32
	pc     int32
	sidx   int32 // pre-resolved static slot index

	off  uint32 // field offset
	size uint32 // memory access size
	n    int32  // fusion head: run length

	dst, a, b, c ir.Reg

	mk   uint8
	fk   uint8
	kind value.Kind
}

// uopCold carries the operands only the cold function chain needs:
// call/allocation targets, prefetch address expressions, and the shapes
// of the generic fallbacks.
type uopCold struct {
	fn      opFn
	class   *classfile.Class
	callee  *ir.Method
	name    string
	args    []ir.Reg
	addr    ir.AddrExpr
	site    int
	op      ir.Op
	cond    ir.Cond
	guarded bool
}

// Code is the executable artifact for one method body in one tier, as
// the dispatcher hands it to the engine: the pre-decoded micro-op stream
// and the register count its activations need. It is immutable after it
// is built and safe to share across engines and pooled VMs.
type Code struct {
	m        *ir.Method
	ops      []uop
	cold     []uopCold
	siteBase uint64
	numRegs  int
	compiled bool // JIT-compiled code; false runs with interpreted accounting
}

// thread is the execution state of step. Each Engine holds one; bind
// re-points it at the current frame, so steady-state steps allocate
// nothing.
//
// cycles/instrs mirror Engine.S.Cycles/S.Instructions in locals; cyc0/ni0
// are the values at the last flush, so flushAcc can add the delta to the
// compiled-code counters when the running code is compiled. One step only
// ever runs code of one tier (calls across tiers yield to Run), so
// perInstr and compiled hold for the whole step.
type thread struct {
	e    *Engine
	f    *frame
	regs []value.Value
	ops  []uop
	m    *ir.Method

	siteBase uint64
	perInstr uint64
	max      uint64
	rec      bool
	compiled bool

	cycles, instrs uint64
	cyc0, ni0      uint64

	// One-entry array-header memo: length and element size of the last
	// array addressed. Heap header reads are pure, so the memo is
	// unobservable; it is invalidated by load() at every point the heap
	// can move or recycle objects (allocation, GC, frame re-entry).
	memoRef  uint32
	memoLen  uint32
	memoElem uint32

	ret value.Value
	err error
}

// bind points the thread at one activation of c.
func (t *thread) bind(e *Engine, f *frame, c *Code) {
	t.e = e
	t.f = f
	t.regs = f.regs
	t.ops = c.ops
	t.m = c.m
	t.siteBase = c.siteBase
	t.compiled = c.compiled
	t.perInstr = e.Machine.IssueCycles
	if !c.compiled {
		t.perInstr += e.Machine.InterpPenalty
	}
	t.max = e.MaxInstructions
	t.rec = e.Rec != nil
	t.load()
}

// load refreshes the local accumulators from the engine — required after
// any engine call that mutates S.Cycles directly (allocation touch
// traffic, GC cost), which by design is not compiled-code time. Those are
// also exactly the points where the heap can move or recycle objects, so
// the array memo dies here too.
func (t *thread) load() {
	t.cycles = t.e.S.Cycles
	t.instrs = t.e.S.Instructions
	t.cyc0, t.ni0 = t.cycles, t.instrs
	t.memoRef = 0
}

// flushAcc publishes the local accumulators to the engine, crediting the
// delta since the last flush to the compiled-code counters when the
// running code is compiled.
func (t *thread) flushAcc() {
	s := &t.e.S
	s.Cycles = t.cycles
	s.Instructions = t.instrs
	if t.compiled {
		s.CompiledCycles += t.cycles - t.cyc0
		s.CompiledInstructions += t.instrs - t.ni0
	}
	t.cyc0, t.ni0 = t.cycles, t.instrs
}

// trap records a trap at u's pc. Dispatch sites use its result as the
// next pc.
func (t *thread) trap(u *uop, err error) int {
	t.f.pc = int(u.pc)
	t.err = err
	return ctrlTrap
}

// elemAddr resolves an array element address with full null, kind and
// bounds checking, serving the header (length + element size) from the
// one-entry memo when the same array is addressed back to back.
func (t *thread) elemAddr(arr, idx value.Value) (uint32, error) {
	if !arr.IsRef() || idx.K != value.KindInt {
		return 0, ErrBadValue
	}
	if arr.IsNull() {
		return 0, ErrNullDeref
	}
	a := arr.Ref()
	var n, esz uint32
	if a == t.memoRef {
		n, esz = t.memoLen, t.memoElem
	} else {
		h := t.e.Heap
		n = h.ArrayLen(a)
		esz = h.ClassOf(a).ElemSize
		t.memoRef, t.memoLen, t.memoElem = a, n, esz
	}
	i := idx.Int()
	if i < 0 || uint32(i) >= n {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, n)
	}
	return a + classfile.HeaderBytes + uint32(i)*esz, nil
}

// step executes the top frame f from f.pc until that frame returns
// (done=true with the return value), a call yields (a new frame pushed,
// done=false), or a trap (err non-nil with the faulting frame on top and
// its pc at the faulting instruction, which Run wraps in a RuntimeError).
//
// The loop is the execution tier's entire point: pc, the cycle counter,
// and the retired-instruction counter live in registers, the budget check
// is one compare, and each hot micro-kind is a jump-table case over
// pre-decoded operands. The engine's accumulators are only touched at
// yield points (flushAcc) and around engine calls that charge cycles
// themselves.
//
// Calls between methods of the same tier execute nested inside the same
// loop: the engine's frame stack stays authoritative (pushCall/popFrame
// keep GC roots and trap attribution exact), but the Run-loop round trip —
// and its per-frame bind/flush — is skipped. A call into the other tier
// (compiled code calling a method not yet JIT-compiled, or interpreted
// code calling a compiled one) yields to Run, which binds the callee with
// its own tier's accounting.
func (c *Code) step(e *Engine, f *frame) (value.Value, bool, error) {
	t := &e.th
	t.bind(e, f, c)
	fc := c
	depth := 0
	var (
		ops    = c.ops
		regs   = f.regs
		pc     = f.pc
		cycles = t.cycles
		instrs = t.instrs
		max    = t.max
		per    = t.perInstr
		// fm != nil routes the memory micro-ops through the inline-probe
		// hit lane with a devirtualized fallback; nil is the fully
		// general interface path (see Engine.fastMem).
		fm = e.fastMem
	)
	for pc >= 0 {
		u := &ops[pc]
		if instrs >= max {
			t.cycles, t.instrs = cycles, instrs
			pc = t.trap(u, ErrBudget)
			break
		}
		switch u.mk {
		case mkNop:
			cycles += per
			instrs++
			pc = int(u.next)
		case mkConst:
			regs[u.dst] = u.val
			cycles += per
			instrs++
			pc = int(u.next)
		case mkMove:
			regs[u.dst] = regs[u.a]
			cycles += per
			instrs++
			pc = int(u.next)
		case mkAddInt:
			regs[u.dst] = value.Int(regs[u.a].Int() + regs[u.b].Int())
			cycles += per
			instrs++
			pc = int(u.next)
		case mkSubInt:
			regs[u.dst] = value.Int(regs[u.a].Int() - regs[u.b].Int())
			cycles += per
			instrs++
			pc = int(u.next)
		case mkMulInt:
			regs[u.dst] = value.Int(regs[u.a].Int() * regs[u.b].Int())
			cycles += per
			instrs++
			pc = int(u.next)
		case mkSink:
			e.sink(regs[u.a])
			cycles += per
			instrs++
			pc = int(u.next)

		case mkFused:
			if instrs+uint64(u.n) > max {
				t.cycles, t.instrs = cycles, instrs
				pc = fusedSlow(t, u)
				cycles, instrs = t.cycles, t.instrs
				break
			}
			for i := u.pc; i < u.next; i++ {
				v := &ops[i]
				switch v.fk {
				case mkConst:
					regs[v.dst] = v.val
				case mkMove:
					regs[v.dst] = regs[v.a]
				case mkAddInt:
					regs[v.dst] = value.Int(regs[v.a].Int() + regs[v.b].Int())
				case mkSubInt:
					regs[v.dst] = value.Int(regs[v.a].Int() - regs[v.b].Int())
				case mkMulInt:
					regs[v.dst] = value.Int(regs[v.a].Int() * regs[v.b].Int())
				case mkSink:
					e.sink(regs[v.a])
				}
			}
			cycles += uint64(u.n) * per
			instrs += uint64(u.n)
			pc = int(u.next)

		case mkGoto:
			cycles += per
			instrs++
			pc = int(u.target)
		case mkBrEQInt:
			cycles += per
			instrs++
			if regs[u.a].Int() == regs[u.b].Int() {
				pc = int(u.target)
			} else {
				pc = int(u.next)
			}
		case mkBrNEInt:
			cycles += per
			instrs++
			if regs[u.a].Int() != regs[u.b].Int() {
				pc = int(u.target)
			} else {
				pc = int(u.next)
			}
		case mkBrLTInt:
			cycles += per
			instrs++
			if regs[u.a].Int() < regs[u.b].Int() {
				pc = int(u.target)
			} else {
				pc = int(u.next)
			}
		case mkBrLEInt:
			cycles += per
			instrs++
			if regs[u.a].Int() <= regs[u.b].Int() {
				pc = int(u.target)
			} else {
				pc = int(u.next)
			}
		case mkBrGTInt:
			cycles += per
			instrs++
			if regs[u.a].Int() > regs[u.b].Int() {
				pc = int(u.target)
			} else {
				pc = int(u.next)
			}
		case mkBrGEInt:
			cycles += per
			instrs++
			if regs[u.a].Int() >= regs[u.b].Int() {
				pc = int(u.target)
			} else {
				pc = int(u.next)
			}

		case mkRetVoid:
			cycles += per
			instrs++
			if depth > 0 {
				e.popFrame(value.Value{})
				f = e.topFrame()
				fc = f.code
				ops = fc.ops
				regs = f.regs
				t.f, t.regs, t.m, t.ops, t.siteBase = f, f.regs, fc.m, fc.ops, fc.siteBase
				pc = f.pc
				depth--
				break
			}
			f.pc = int(u.pc)
			t.ret = value.Value{}
			pc = ctrlReturn
		case mkRetVal:
			cycles += per
			instrs++
			if depth > 0 {
				e.popFrame(regs[u.a])
				f = e.topFrame()
				fc = f.code
				ops = fc.ops
				regs = f.regs
				t.f, t.regs, t.m, t.ops, t.siteBase = f, f.regs, fc.m, fc.ops, fc.siteBase
				pc = f.pc
				depth--
				break
			}
			f.pc = int(u.pc)
			t.ret = regs[u.a]
			pc = ctrlReturn

		case mkGetField4:
			obj := regs[u.a]
			if !obj.IsRef() {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, ErrBadValue)
				break
			}
			if obj.IsNull() {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, ErrNullDeref)
				break
			}
			addr := obj.Ref() + u.off
			var stall uint64
			if fm != nil {
				var hit bool
				if stall, hit = fm.LoadHit(addr, cycles); !hit {
					stall = fm.LoadAt(addr, u.size, cycles, t.siteBase|uint64(u.pc))
				}
			} else {
				stall = e.Mem.LoadAt(addr, u.size, cycles, t.siteBase|uint64(u.pc))
			}
			regs[u.dst] = value.Value{K: u.kind, B: uint64(e.Heap.Load4(addr))}
			if t.rec && stall != 0 {
				e.noteLoad(t.m, int(u.pc), stall)
			}
			cycles += per + stall
			instrs++
			pc = int(u.next)
		case mkGetField8:
			obj := regs[u.a]
			if !obj.IsRef() {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, ErrBadValue)
				break
			}
			if obj.IsNull() {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, ErrNullDeref)
				break
			}
			addr := obj.Ref() + u.off
			var stall uint64
			if fm != nil {
				var hit bool
				if stall, hit = fm.LoadHit(addr, cycles); !hit {
					stall = fm.LoadAt(addr, u.size, cycles, t.siteBase|uint64(u.pc))
				}
			} else {
				stall = e.Mem.LoadAt(addr, u.size, cycles, t.siteBase|uint64(u.pc))
			}
			regs[u.dst] = value.Value{K: u.kind, B: e.Heap.Load8(addr)}
			if t.rec && stall != 0 {
				e.noteLoad(t.m, int(u.pc), stall)
			}
			cycles += per + stall
			instrs++
			pc = int(u.next)
		case mkPutField:
			obj := regs[u.a]
			if !obj.IsRef() {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, ErrBadValue)
				break
			}
			if obj.IsNull() {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, ErrNullDeref)
				break
			}
			addr := obj.Ref() + u.off
			var stall uint64
			if fm != nil {
				var hit bool
				if stall, hit = fm.StoreHit(addr, cycles); !hit {
					stall = fm.Store(addr, u.size, cycles)
				}
			} else {
				stall = e.Mem.Store(addr, u.size, cycles)
			}
			storeHeap(t, addr, regs[u.b])
			cycles += per + stall
			instrs++
			pc = int(u.next)

		case mkGetStatic:
			regs[u.dst] = e.Prog.Universe.StaticAt(int(u.sidx))
			cycles += per
			instrs++
			pc = int(u.next)
		case mkPutStatic:
			e.Prog.Universe.SetStaticAt(int(u.sidx), regs[u.a])
			cycles += per
			instrs++
			pc = int(u.next)

		case mkArrayLoad4:
			addr, err := t.elemAddr(regs[u.a], regs[u.b])
			if err != nil {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, err)
				break
			}
			var stall uint64
			if fm != nil {
				var hit bool
				if stall, hit = fm.LoadHit(addr, cycles); !hit {
					stall = fm.LoadAt(addr, u.size, cycles, t.siteBase|uint64(u.pc))
				}
			} else {
				stall = e.Mem.LoadAt(addr, u.size, cycles, t.siteBase|uint64(u.pc))
			}
			regs[u.dst] = value.Value{K: u.kind, B: uint64(e.Heap.Load4(addr))}
			if t.rec && stall != 0 {
				e.noteLoad(t.m, int(u.pc), stall)
			}
			cycles += per + stall
			instrs++
			pc = int(u.next)
		case mkArrayLoad8:
			addr, err := t.elemAddr(regs[u.a], regs[u.b])
			if err != nil {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, err)
				break
			}
			var stall uint64
			if fm != nil {
				var hit bool
				if stall, hit = fm.LoadHit(addr, cycles); !hit {
					stall = fm.LoadAt(addr, u.size, cycles, t.siteBase|uint64(u.pc))
				}
			} else {
				stall = e.Mem.LoadAt(addr, u.size, cycles, t.siteBase|uint64(u.pc))
			}
			regs[u.dst] = value.Value{K: u.kind, B: e.Heap.Load8(addr)}
			if t.rec && stall != 0 {
				e.noteLoad(t.m, int(u.pc), stall)
			}
			cycles += per + stall
			instrs++
			pc = int(u.next)
		case mkArrayStore:
			addr, err := t.elemAddr(regs[u.a], regs[u.b])
			if err != nil {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, err)
				break
			}
			var stall uint64
			if fm != nil {
				var hit bool
				if stall, hit = fm.StoreHit(addr, cycles); !hit {
					stall = fm.Store(addr, u.size, cycles)
				}
			} else {
				stall = e.Mem.Store(addr, u.size, cycles)
			}
			storeHeap(t, addr, regs[u.c])
			cycles += per + stall
			instrs++
			pc = int(u.next)
		case mkArrayLen:
			arr := regs[u.a]
			if !arr.IsRef() {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, ErrBadValue)
				break
			}
			if arr.IsNull() {
				t.cycles, t.instrs = cycles, instrs
				pc = t.trap(u, ErrNullDeref)
				break
			}
			addr := arr.Ref() + classfile.AuxOffset
			var stall uint64
			if fm != nil {
				var hit bool
				if stall, hit = fm.LoadHit(addr, cycles); !hit {
					stall = fm.LoadAt(addr, 4, cycles, t.siteBase|uint64(u.pc))
				}
			} else {
				stall = e.Mem.LoadAt(addr, 4, cycles, t.siteBase|uint64(u.pc))
			}
			regs[u.dst] = value.Int(int32(e.Heap.Load4(addr)))
			if t.rec && stall != 0 {
				e.noteLoad(t.m, int(u.pc), stall)
			}
			cycles += per + stall
			instrs++
			pc = int(u.next)

		default: // mkSlow: the cold function chain.
			d := &fc.cold[pc]
			t.cycles, t.instrs = cycles, instrs
			npc := d.fn(t, u, d)
			cycles, instrs = t.cycles, t.instrs
			if npc == ctrlCall {
				// The push may have grown and moved the frame stack, so f
				// and t.f are stale: re-point at the callee, or yield to
				// Run, which re-fetches its top frame.
				nf := e.topFrame()
				if nf.code.compiled == fc.compiled {
					// Same-tier callee: keep executing in this loop.
					f = nf
					fc = nf.code
					ops = fc.ops
					regs = f.regs
					t.f, t.regs, t.m, t.ops, t.siteBase = f, f.regs, fc.m, fc.ops, fc.siteBase
					pc = f.pc
					depth++
					break
				}
			}
			pc = npc
		}
	}
	t.cycles, t.instrs = cycles, instrs
	t.flushAcc()
	t.f = nil
	t.regs = nil
	switch pc {
	case ctrlReturn:
		r := t.ret
		t.ret = value.Value{}
		return r, true, nil
	case ctrlCall:
		return value.Value{}, false, nil
	}
	err := t.err
	t.err = nil
	return value.Value{}, false, err
}

// Build translates a JIT-compiled method body (code and numRegs, the
// JIT's output for m) into its compiled Code. The hot []uop arena and its
// parallel cold table are the only allocations proportional to code size;
// operand decoding (field offsets, access sizes, static slots, constant
// values, branch shapes) happens here, once.
func Build(m *ir.Method, code []ir.Instr, numRegs int, u *classfile.Universe) *Code {
	c := &Code{}
	build(c, m, code, numRegs, u, true, make([]uop, len(code)), make([]uopCold, len(code)))
	return c
}

// BuildInterpreted builds the interpreted Code of every method of p,
// indexed by ir.Method.Index. The Codes and their hot and cold arenas are
// one allocation each, however many methods p has.
func BuildInterpreted(p *ir.Program) []Code {
	methods := p.Methods()
	n := 0
	for _, m := range methods {
		n += len(m.Code)
	}
	codes := make([]Code, len(methods))
	ops := make([]uop, n)
	cold := make([]uopCold, n)
	for i, m := range methods {
		k := len(m.Code)
		build(&codes[i], m, m.Code, m.NumRegs, p.Universe, false, ops[:k:k], cold[:k:k])
		ops, cold = ops[k:], cold[k:]
	}
	return codes
}

// build decodes code into the given arenas, one slot per instruction.
func build(c *Code, m *ir.Method, code []ir.Instr, numRegs int, u *classfile.Universe, compiled bool, ops []uop, cold []uopCold) {
	*c = Code{m: m, ops: ops, cold: cold, siteBase: uint64(m.Index()+1) << 16, numRegs: numRegs, compiled: compiled}
	for i := range code {
		decode(&ops[i], &cold[i], &code[i], i, u)
	}
	fuse(ops)
}

// decode pre-resolves one instruction into ops[i] and cold[i].
func decode(o *uop, d *uopCold, in *ir.Instr, pc int, u *classfile.Universe) {
	o.pc = int32(pc)
	o.next = int32(pc + 1)
	o.kind = in.Kind
	o.dst, o.a, o.b, o.c = in.Dst, in.A, in.B, in.C
	d.op = in.Op

	switch in.Op {
	case ir.OpNop:
		o.mk = mkNop
	case ir.OpConst:
		o.val = constValue(in)
		o.mk = mkConst
	case ir.OpMove:
		o.mk = mkMove
	case ir.OpAdd:
		if in.Kind == value.KindInt {
			o.mk = mkAddInt
		} else {
			d.fn = opBinGeneric
		}
	case ir.OpSub:
		if in.Kind == value.KindInt {
			o.mk = mkSubInt
		} else {
			d.fn = opBinGeneric
		}
	case ir.OpMul:
		if in.Kind == value.KindInt {
			o.mk = mkMulInt
		} else {
			d.fn = opBinGeneric
		}
	case ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpUshr:
		d.fn = opBinGeneric
	case ir.OpNeg:
		d.fn = opNeg
	case ir.OpConv:
		d.fn = opConv

	case ir.OpGoto:
		o.target = int32(in.Target)
		o.mk = mkGoto
	case ir.OpBr:
		o.target = int32(in.Target)
		d.cond = in.Cond
		if in.Kind == value.KindInt {
			switch in.Cond {
			case ir.CondEQ:
				o.mk = mkBrEQInt
			case ir.CondNE:
				o.mk = mkBrNEInt
			case ir.CondLT:
				o.mk = mkBrLTInt
			case ir.CondLE:
				o.mk = mkBrLEInt
			case ir.CondGT:
				o.mk = mkBrGTInt
			case ir.CondGE:
				o.mk = mkBrGEInt
			default:
				// An unknown int condition faults at run time, before
				// charging; the shape is static, so the trap can be
				// pre-decoded.
				d.fn = opBadCond
			}
		} else {
			d.fn = opBrGeneric
		}
	case ir.OpReturn:
		if in.A == ir.NoReg {
			o.mk = mkRetVoid
		} else {
			o.mk = mkRetVal
		}

	case ir.OpGetField:
		o.off = in.Field.Offset
		o.kind = in.Field.Kind
		o.size = in.Field.Kind.Size()
		if wide(o.kind) {
			o.mk = mkGetField8
		} else {
			o.mk = mkGetField4
		}
	case ir.OpPutField:
		o.off = in.Field.Offset
		o.size = in.Field.Kind.Size()
		o.mk = mkPutField
	case ir.OpGetStatic:
		o.sidx = int32(u.StaticIndex(in.Field))
		o.mk = mkGetStatic
	case ir.OpPutStatic:
		o.sidx = int32(u.StaticIndex(in.Field))
		o.mk = mkPutStatic

	case ir.OpArrayLoad:
		o.size = in.Kind.Size()
		if wide(o.kind) {
			o.mk = mkArrayLoad8
		} else {
			o.mk = mkArrayLoad4
		}
	case ir.OpArrayStore:
		o.size = in.Kind.Size()
		o.mk = mkArrayStore
	case ir.OpArrayLen:
		o.mk = mkArrayLen

	case ir.OpNew:
		d.class = in.Class
		d.fn = opNew
	case ir.OpNewArray:
		d.fn = opNewArray

	case ir.OpCall:
		d.callee = in.Callee
		d.args = in.Args
		d.fn = opCall
	case ir.OpCallVirt:
		d.name = in.Name
		d.args = in.Args
		d.fn = opCallVirt

	case ir.OpSink:
		o.mk = mkSink

	case ir.OpPrefetch:
		d.addr = in.Addr
		d.guarded = in.Guarded
		d.site = int(in.Site)
		d.fn = opPrefetch
	case ir.OpSpecLoad:
		d.addr = in.Addr
		d.site = int(in.Site)
		d.fn = opSpecLoad

	default:
		d.fn = opBadOp
	}
	o.fk = o.mk
}

// wide reports whether k occupies 8 heap bytes.
func wide(k value.Kind) bool { return k == value.KindLong || k == value.KindDouble }

// fuse replaces the head of every maximal run (length ≥ 2) of fusible
// micro-ops with a single fused dispatch. Sub-ops keep their own
// micro-kinds (fk mirrors mk for them), so a branch into the middle of a
// run executes correctly — fusion needs no leader analysis to be exact.
func fuse(ops []uop) {
	for i := 0; i < len(ops); {
		if !fusible(ops[i].mk) {
			i++
			continue
		}
		j := i
		for j < len(ops) && fusible(ops[j].mk) {
			j++
		}
		if j-i >= 2 {
			h := &ops[i]
			h.n = int32(j - i)
			h.next = int32(j)
			h.mk = mkFused
		}
		i = j
	}
}

// ---------------------------------------------------------------------------
// Cold-tail op funcs — the function-threaded chain for calls, allocation,
// prefetching, and the generic arithmetic/branch fallbacks. Each executes
// with the thread accumulators synchronized by the dispatch loop (which
// has already performed the budget check), then retires at perInstr plus
// any memory stall.

func opBinGeneric(t *thread, u *uop, d *uopCold) int {
	v, err := ir.EvalBinary(d.op, u.kind, t.regs[u.a], t.regs[u.b])
	if err != nil {
		return t.trap(u, err)
	}
	t.regs[u.dst] = v
	t.cycles += t.perInstr
	t.instrs++
	return int(u.next)
}

func opNeg(t *thread, u *uop, d *uopCold) int {
	v, err := ir.EvalUnary(d.op, u.kind, t.regs[u.a])
	if err != nil {
		return t.trap(u, err)
	}
	t.regs[u.dst] = v
	t.cycles += t.perInstr
	t.instrs++
	return int(u.next)
}

func opConv(t *thread, u *uop, d *uopCold) int {
	v, err := ir.Convert(u.kind, t.regs[u.a])
	if err != nil {
		return t.trap(u, err)
	}
	t.regs[u.dst] = v
	t.cycles += t.perInstr
	t.instrs++
	return int(u.next)
}

func opBadCond(t *thread, u *uop, d *uopCold) int {
	return t.trap(u, ir.ErrBadOperand)
}

func opBrGeneric(t *thread, u *uop, d *uopCold) int {
	taken, err := ir.EvalCond(d.cond, u.kind, t.regs[u.a], t.regs[u.b])
	if err != nil {
		return t.trap(u, err)
	}
	t.cycles += t.perInstr
	t.instrs++
	if taken {
		return int(u.target)
	}
	return int(u.next)
}

// storeHeap widens by the stored value's kind — the field's declared kind
// only sizes the simulated memory access.
func storeHeap(t *thread, addr uint32, v value.Value) {
	if wide(v.K) {
		t.e.Heap.Store8(addr, v.B)
	} else {
		t.e.Heap.Store4(addr, v.Bits())
	}
}

func opNew(t *thread, u *uop, d *uopCold) int {
	// Allocation (and a GC it may trigger) charges S.Cycles directly —
	// publish the accumulators, then refresh them.
	t.flushAcc()
	addr, err := t.e.allocObject(d.class)
	t.load()
	if err != nil {
		return t.trap(u, err)
	}
	t.regs[u.dst] = value.Ref(addr)
	t.cycles += t.perInstr
	t.instrs++
	return int(u.next)
}

func opNewArray(t *thread, u *uop, d *uopCold) int {
	n := t.regs[u.a]
	if n.K != value.KindInt {
		return t.trap(u, ErrBadValue)
	}
	if n.Int() < 0 {
		return t.trap(u, ErrNegativeSize)
	}
	t.flushAcc()
	addr, err := t.e.allocArray(u.kind, uint32(n.Int()))
	t.load()
	if err != nil {
		return t.trap(u, err)
	}
	t.regs[u.dst] = value.Ref(addr)
	t.cycles += t.perInstr
	t.instrs++
	return int(u.next)
}

func opCall(t *thread, u *uop, d *uopCold) int {
	return callTo(t, u, d, d.callee)
}

func opCallVirt(t *thread, u *uop, d *uopCold) int {
	recv := t.regs[d.args[0]]
	if !recv.IsRef() {
		return t.trap(u, ErrBadValue)
	}
	if recv.IsNull() {
		return t.trap(u, ErrNullDeref)
	}
	c := t.e.Heap.ClassOf(recv.Ref())
	callee := t.e.Prog.LookupVirtual(c, d.name)
	if callee == nil {
		return t.trap(u, fmt.Errorf("%w: %s on %s", ErrNoMethod, d.name, c.Name))
	}
	return callTo(t, u, d, callee)
}

// callTo retires the call (issue + overhead), stages the arguments,
// advances the frame past the call, and pushes the callee. A failed push
// (stack overflow) traps with the call already charged and f.pc already
// advanced. f.pc is written before the push because a push can move the
// frame stack; t.f is stale after one until step re-points it.
func callTo(t *thread, u *uop, d *uopCold, callee *ir.Method) int {
	t.cycles += t.perInstr + 4 // call overhead
	t.instrs++
	args := t.e.argBuf(len(d.args))
	regs := t.regs
	for i, r := range d.args {
		args[i] = regs[r]
	}
	t.f.pc = int(u.next)
	t.flushAcc()
	if err := t.e.pushCall(callee, args, u.dst); err != nil {
		t.err = err
		return ctrlTrap
	}
	t.load()
	return ctrlCall
}

func opPrefetch(t *thread, u *uop, d *uopCold) int {
	if addr, ok := t.e.prefetchAddr(t.regs, d.addr); ok {
		out := t.e.Mem.Prefetch(addr, d.guarded, t.cycles)
		if t.rec {
			t.e.notePrefetch(t.m, d.site, out)
		}
	}
	t.cycles += t.perInstr
	t.instrs++
	return int(u.next)
}

func opSpecLoad(t *thread, u *uop, d *uopCold) int {
	if addr, ok := t.e.prefetchAddr(t.regs, d.addr); ok {
		out := t.e.Mem.Prefetch(addr, true, t.cycles)
		if t.rec {
			t.e.notePrefetch(t.m, d.site, out)
		}
		t.regs[u.dst] = value.SpecRef(t.e.Heap.Load4(addr))
	} else {
		t.regs[u.dst] = value.SpecRef(0)
	}
	t.cycles += t.perInstr
	t.instrs++
	return int(u.next)
}

func opBadOp(t *thread, u *uop, d *uopCold) int {
	return t.trap(u, fmt.Errorf("interp: unimplemented op %s: %w", d.op, ir.ErrBadOperand))
}

// fusedSlow is the fused run's budget-edge path: per-op budget checks so
// the trap lands on exactly the micro-op an unfused run would fault.
func fusedSlow(t *thread, u *uop) int {
	ops := t.ops
	regs := t.regs
	for i := u.pc; i < u.next; i++ {
		v := &ops[i]
		if t.instrs >= t.max {
			return t.trap(v, ErrBudget)
		}
		switch v.fk {
		case mkConst:
			regs[v.dst] = v.val
		case mkMove:
			regs[v.dst] = regs[v.a]
		case mkAddInt:
			regs[v.dst] = value.Int(regs[v.a].Int() + regs[v.b].Int())
		case mkSubInt:
			regs[v.dst] = value.Int(regs[v.a].Int() - regs[v.b].Int())
		case mkMulInt:
			regs[v.dst] = value.Int(regs[v.a].Int() * regs[v.b].Int())
		case mkSink:
			t.e.sink(regs[v.a])
		}
		t.cycles += t.perInstr
		t.instrs++
	}
	return int(u.next)
}
