// Package interp is the execution engine of the simulated VM. It executes
// IR — baseline or prefetch-augmented — over the simulated heap, routing
// every memory access through the machine's memory-system model and
// accounting cycles with the machine's timing model.
//
// The engine runs both interpreted and JIT-compiled activations (the
// dispatcher decides per invocation); interpreted instructions pay the
// machine's interpretation penalty, which is how the mixed-mode
// compiled-code fractions of Table 3 arise. Interpreted activations run
// on the engine's step loop. The VM hands every JIT-compiled activation
// a threaded artifact (internal/compile), which Run steps instead; the
// step loop's compiled accounting remains the reference that artifact is
// tested against.
package interp

import (
	"errors"
	"fmt"

	"sort"

	"strider/internal/arch"
	"strider/internal/classfile"
	"strider/internal/heap"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/telemetry"
	"strider/internal/value"
)

// MemModel is the memory-hierarchy interface the engine drives
// (implemented by memsim.Memory). LoadAt carries the load-site pc —
// (method index << 16) | instruction index — which pc-indexed hardware
// prefetchers key their prediction tables on; stores and software
// prefetches do not train those tables and carry no site. Prefetch
// reports what became of the request so outcomes can be attributed to the
// emitting site.
type MemModel interface {
	LoadAt(addr, size uint32, now uint64, pc uint64) uint64
	Store(addr, size uint32, now uint64) uint64
	Prefetch(addr uint32, guarded bool, now uint64) telemetry.PrefetchOutcome
}

// FlatMem is the zero-latency memory model: loads and stores cost no
// cycles and every prefetch reports a fill. Running over it keeps a
// program's architectural behaviour (values, control flow, retirement
// counts, heap and GC) and drops only the memory timing, along with the
// host cost of simulating it.
type FlatMem struct{}

// LoadAt implements MemModel.
func (FlatMem) LoadAt(addr, size uint32, now uint64, pc uint64) uint64 { return 0 }

// Store implements MemModel.
func (FlatMem) Store(addr, size uint32, now uint64) uint64 { return 0 }

// Prefetch implements MemModel.
func (FlatMem) Prefetch(addr uint32, guarded bool, now uint64) telemetry.PrefetchOutcome {
	return telemetry.PrefetchFetched
}

// Code is an executable method body as chosen by the dispatcher.
type Code struct {
	Instrs   []ir.Instr
	NumRegs  int
	Compiled bool

	// Threaded, when non-nil, is the method's pre-decoded micro-op stream.
	// The VM builds one (internal/compile) for every method it
	// JIT-compiles, and Run steps it in place of the interpreter loop.
	// Interpreted code has none, so interpreted activations — including
	// ones pushed before their method was compiled — run the step loop.
	// Instrs stays authoritative for trap attribution. A Compiled code
	// with no artifact runs the step loop with compiled accounting: the
	// reference the threaded tier's differential tests compare against.
	Threaded ThreadedCode
}

// ThreadedCode executes activations of one method from a pre-decoded
// representation. Step has the exact contract of the interpreter's step:
// execute the top frame f until it returns (done=true with the return
// value), calls (a new frame pushed, done=false), or traps (err non-nil
// with f.PC at the faulting instruction, so Run's RuntimeError wrapping
// attributes it identically).
type ThreadedCode interface {
	Step(e *Engine, f *Frame) (value.Value, bool, error)
}

// Dispatcher resolves each invocation to executable code, JIT-compiling as
// it sees fit. It receives the actual argument values — the hook that
// makes object inspection possible.
type Dispatcher interface {
	Invoke(m *ir.Method, args []value.Value) *Code
}

// RuntimeError is a trap raised by executing IR (null dereference, bounds,
// division by zero, out of memory, ...).
type RuntimeError struct {
	Method *ir.Method
	PC     int
	Err    error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error in %s@%d: %v", e.Method.QName(), e.PC, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// Execution trap causes.
var (
	ErrNullDeref     = errors.New("null dereference")
	ErrBounds        = errors.New("array index out of bounds")
	ErrNegativeSize  = errors.New("negative array size")
	ErrStackOverflow = errors.New("call stack overflow")
	ErrNoMethod      = errors.New("virtual dispatch failed")
	ErrBudget        = errors.New("instruction budget exhausted")
	ErrBadValue      = errors.New("operand has wrong kind")
)

// MaxFrames bounds recursion depth.
const MaxFrames = 1024

// initialFrames is the frame stack's starting capacity; most programs
// never call deeper than a few frames.
const initialFrames = 8

// DefaultMaxInstructions bounds runaway programs.
const DefaultMaxInstructions = 4_000_000_000

// Frame is one activation record. Its fields are exported so the compiled
// execution tier (internal/compile) can run activations of the same stack;
// VM-internal invariants (stack growth, register reuse) are owned by
// push and Run.
type Frame struct {
	M        *ir.Method
	Code     []ir.Instr
	Compiled bool
	PC       int
	Regs     []value.Value
	RetReg   ir.Reg // caller register receiving the return value

	// threaded is the frame's pre-decoded micro-op executor, set at push
	// time when the dispatched Code carries one; Run steps it instead of
	// the interpreter loop.
	threaded ThreadedCode
}

// Stats is the engine's cycle and event accounting for one run.
type Stats struct {
	Cycles               uint64
	Instructions         uint64
	CompiledCycles       uint64
	CompiledInstructions uint64
	GCs                  uint64
	GCCycles             uint64
	AllocBytes           uint64
	Checksum             uint64
}

// Engine executes programs.
type Engine struct {
	Prog    *ir.Program
	Heap    *heap.Heap
	Mem     MemModel
	Disp    Dispatcher
	Machine *arch.Machine

	// MaxInstructions bounds one Run (defaults to DefaultMaxInstructions).
	MaxInstructions uint64
	// ChargeGC adds a modelled GC cost to the cycle count (1 cycle per 4
	// live bytes plus a per-collection constant).
	ChargeGC bool

	// Rec, when non-nil, enables per-site memory attribution: the engine
	// aggregates prefetch outcomes (keyed by the instruction's Site, the
	// emitting load) and demand-load stalls (keyed by pc), and FlushSites
	// emits the aggregate. A nil Rec costs one pointer test per memory
	// instruction and zero allocations.
	Rec telemetry.Recorder

	S Stats

	// ExecScratch is opaque per-engine scratch storage for a ThreadedCode
	// implementation. The compiled tier parks its reusable thread state
	// here so steady-state Step calls allocate nothing; the engine never
	// reads it.
	ExecScratch any

	// fastMem pins Mem's concrete type when it is the standard simulator,
	// enabling the devirtualized inline-probe hit lane at the engine's
	// memory-access sites (and the compiled tier's, via FastMem): probe
	// memsim.LoadHit/StoreHit inline, fall into the full access as a
	// direct — not interface — call. nil routes every access through the
	// MemModel interface: any other model (oracle taps, test doubles,
	// FlatMem, or a wrapper that hides a *memsim.Memory behind the
	// interface). Derived by SetMem; the lane choice is made once at
	// wiring, never per access.
	fastMem *memsim.Memory

	// frames is the activation stack. It starts at initialFrames and push
	// doubles it (up to MaxFrames) when a call reaches past its capacity,
	// so a *Frame is only valid until the next push: holders re-fetch the
	// top frame after any call. Popped frames keep their register slices
	// for reuse, and growth carries them over, so once the stack has
	// reached a run's depth the call path allocates nothing.
	frames []Frame
	// argbuf is the scratch buffer call argument values are staged in
	// before they are copied into the callee frame.
	argbuf []value.Value
	sites  map[siteKey]*siteAgg
}

// siteKey identifies one attribution site within a method.
type siteKey struct {
	m        *ir.Method
	site     int
	prefetch bool
}

type siteAgg struct {
	issued, useless, dropped uint64
	count, stall             uint64
}

// New creates an engine.
func New(prog *ir.Program, h *heap.Heap, mem MemModel, disp Dispatcher, m *arch.Machine) *Engine {
	e := &Engine{
		Prog: prog, Heap: h, Disp: disp, Machine: m,
		MaxInstructions: DefaultMaxInstructions,
		ChargeGC:        true,
		frames:          make([]Frame, 0, initialFrames),
	}
	e.SetMem(mem)
	return e
}

// SetMem installs the memory model and re-derives the fast-lane pinning.
// Every reassignment of the engine's memory model must go through here —
// writing the Mem field directly would leave a previously pinned backend
// receiving the hot-path accesses behind the new model's back. Only a
// bare *memsim.Memory is pinned; wrapping one, as in
// SetMem(struct{ MemModel }{mem}), keeps the same simulator on the
// interface path.
func (e *Engine) SetMem(m MemModel) {
	e.Mem = m
	e.fastMem, _ = m.(*memsim.Memory)
}

// FastMem returns the pinned concrete memory simulator, or nil when
// accesses must take the MemModel interface path. The compiled tier
// routes its memory micro-ops through it exactly like step does.
func (e *Engine) FastMem() *memsim.Memory { return e.fastMem }

// ResetStats clears the per-run statistics and the site attribution.
func (e *Engine) ResetStats() {
	e.S = Stats{}
	e.sites = nil
}

// notePrefetch attributes one prefetch outcome to its emitting site.
func (e *Engine) notePrefetch(m *ir.Method, site int, out telemetry.PrefetchOutcome) {
	a := e.siteAggFor(siteKey{m: m, site: site, prefetch: true})
	a.issued++
	switch out {
	case telemetry.PrefetchUseless:
		a.useless++
	case telemetry.PrefetchDroppedTLB, telemetry.PrefetchDroppedQueue:
		a.dropped++
	}
}

// noteLoad attributes one demand load's stall cycles to its pc.
func (e *Engine) noteLoad(m *ir.Method, pc int, stall uint64) {
	a := e.siteAggFor(siteKey{m: m, site: pc})
	a.count++
	a.stall += stall
}

func (e *Engine) siteAggFor(k siteKey) *siteAgg {
	if e.sites == nil {
		e.sites = make(map[siteKey]*siteAgg)
	}
	a := e.sites[k]
	if a == nil {
		a = &siteAgg{}
		e.sites[k] = a
	}
	return a
}

// FlushSites emits the aggregated site attribution as SiteEvents in a
// deterministic order (method name, prefetch sites before load sites,
// site index) and clears the aggregation.
func (e *Engine) FlushSites() {
	if e.Rec == nil || len(e.sites) == 0 {
		e.sites = nil
		return
	}
	keys := make([]siteKey, 0, len(e.sites))
	for k := range e.sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if an, bn := a.m.QName(), b.m.QName(); an != bn {
			return an < bn
		}
		if a.prefetch != b.prefetch {
			return a.prefetch
		}
		return a.site < b.site
	})
	for _, k := range keys {
		a := e.sites[k]
		ev := telemetry.SiteEvent{Method: k.m.QName(), Site: k.site}
		if k.prefetch {
			ev.Kind = "prefetch"
			ev.Issued, ev.Useless, ev.Dropped = a.issued, a.useless, a.dropped
		} else {
			ev.Kind = "load"
			ev.Count, ev.StallCycles = a.count, a.stall
		}
		e.Rec.Site(ev)
	}
	e.sites = nil
}

// lineBytes returns the allocation-touch granule.
func (e *Engine) lineBytes() uint32 { return e.Machine.L1D.LineBytes }

// push dispatches m and pushes its activation, growing a full stack first
// (see frames): a *Frame taken before the push is stale afterwards.
func (e *Engine) push(m *ir.Method, args []value.Value, retReg ir.Reg) error {
	n := len(e.frames)
	if n >= MaxFrames {
		return ErrStackOverflow
	}
	if n == cap(e.frames) {
		grown := make([]Frame, n, min(2*n, MaxFrames))
		copy(grown, e.frames)
		e.frames = grown
	}
	code := e.Disp.Invoke(m, args)
	e.frames = e.frames[:n+1]
	f := &e.frames[n]
	f.M = m
	f.Code = code.Instrs
	f.Compiled = code.Compiled
	f.threaded = code.Threaded
	f.PC = 0
	f.RetReg = retReg
	if cap(f.Regs) >= code.NumRegs {
		f.Regs = f.Regs[:code.NumRegs]
	} else {
		f.Regs = make([]value.Value, code.NumRegs)
	}
	na := copy(f.Regs, args)
	// A reused register slice carries the previous activation's values;
	// clear the non-argument registers so GC roots and def-before-use
	// behaviour match a freshly zeroed frame.
	tail := f.Regs[na:]
	for i := range tail {
		tail[i] = value.Value{}
	}
	return nil
}

// roots enumerates all reference slots in live frames for the collector.
func (e *Engine) roots(visit func(*value.Value)) {
	for fi := range e.frames {
		regs := e.frames[fi].Regs
		for i := range regs {
			if regs[i].K == value.KindRef {
				visit(&regs[i])
			}
		}
	}
}

// collect runs a GC and charges its modelled cost.
func (e *Engine) collect() {
	live := e.Heap.Collect(e.roots)
	e.S.GCs++
	if e.ChargeGC {
		cost := 50_000 + live/4
		e.S.GCCycles += cost
		e.S.Cycles += cost
	}
}

// allocObject allocates with GC-on-demand and charges allocation traffic.
func (e *Engine) allocObject(c *classfile.Class) (uint32, error) {
	addr, err := e.Heap.AllocObject(c)
	if err != nil {
		e.collect()
		addr, err = e.Heap.AllocObject(c)
		if err != nil {
			return 0, err
		}
	}
	e.touchAlloc(addr, c.InstanceSize)
	return addr, nil
}

func (e *Engine) allocArray(k value.Kind, n uint32) (uint32, error) {
	addr, err := e.Heap.AllocArray(k, n)
	if err != nil {
		e.collect()
		addr, err = e.Heap.AllocArray(k, n)
		if err != nil {
			return 0, err
		}
	}
	e.touchAlloc(addr, e.Heap.ObjectSize(addr))
	return addr, nil
}

// touchAlloc models the zeroing writes of allocation: one store per cache
// line of the new object. Line-stepping writes miss the single-line memo
// on every step, so only the first store of each line can complete in the
// hit lane — the probe still saves the interface dispatch on it.
func (e *Engine) touchAlloc(addr, size uint32) {
	e.S.AllocBytes += uint64(size)
	line := e.lineBytes()
	fm := e.fastMem
	for off := uint32(0); off < size; off += line {
		var stall uint64
		if fm != nil {
			var hit bool
			if stall, hit = fm.StoreHit(addr+off, e.S.Cycles); !hit {
				stall = fm.Store(addr+off, 4, e.S.Cycles)
			}
		} else {
			stall = e.Mem.Store(addr+off, 4, e.S.Cycles)
		}
		e.S.Cycles += stall
	}
}

// sink folds a value into the run checksum (FNV-1a over the payload).
func (e *Engine) sink(v value.Value) {
	h := e.S.Checksum
	if h == 0 {
		h = 1469598103934665603
	}
	for i := 0; i < 8; i++ {
		h ^= (v.B >> (8 * i)) & 0xFF
		h *= 1099511628211
	}
	e.S.Checksum = h
}

// Run executes the entry method to completion and returns its result.
func (e *Engine) Run(entry *ir.Method, args []value.Value) (value.Value, error) {
	if len(args) != len(entry.Params) {
		return value.Value{}, fmt.Errorf("interp: entry %s wants %d args, got %d",
			entry.QName(), len(entry.Params), len(args))
	}
	e.frames = e.frames[:0]
	if err := e.push(entry, args, ir.NoReg); err != nil {
		return value.Value{}, err
	}
	var result value.Value
	for len(e.frames) > 0 {
		f := &e.frames[len(e.frames)-1]
		var (
			v    value.Value
			done bool
			err  error
		)
		if f.threaded != nil {
			v, done, err = f.threaded.Step(e, f)
		} else {
			v, done, err = e.step(f)
		}
		if err != nil {
			// A threaded Step may have pushed into deeper compiled frames
			// without returning here; the faulting frame is whatever is on
			// top now (for the interpreter loop that is always f itself).
			ft := &e.frames[len(e.frames)-1]
			return value.Value{}, &RuntimeError{Method: ft.M, PC: ft.PC, Err: err}
		}
		if done {
			// f may be stale: a threaded Step can push nested frames and
			// grow the stack before its own frame returns. The returning
			// frame is the top one now.
			if len(e.frames) == 1 {
				e.frames = e.frames[:0]
				result = v
			} else {
				e.PopFrame(v)
			}
		}
	}
	return result, nil
}

// charge accounts one retired instruction.
func (e *Engine) charge(compiled bool, extra uint64) {
	cost := e.Machine.IssueCycles + extra
	if !compiled {
		cost += e.Machine.InterpPenalty
	}
	e.S.Cycles += cost
	e.S.Instructions++
	if compiled {
		e.S.CompiledCycles += cost
		e.S.CompiledInstructions++
	}
}

// step executes instructions of the top frame until it returns, calls, or
// traps. Returning done=true with a value pops the frame.
//
// The loop is the hot path of every simulation: per-instruction state
// (pc, issue cost, interpretation penalty, telemetry presence) lives in
// locals hoisted out of the loop, the dense Op switch compiles to a jump
// table, and the common int arithmetic/branch ops are evaluated inline
// instead of going through the ir.EvalBinary/EvalCond kind-dispatch
// chains. f.PC is synchronized on every exit so trap attribution
// (RuntimeError.PC) is identical to the straightforward implementation.
func (e *Engine) step(f *Frame) (value.Value, bool, error) {
	code := f.Code
	regs := f.Regs
	pc := f.PC
	compiled := f.Compiled
	// siteBase makes load-site pcs globally unique and deterministic:
	// (method index + 1) << 16 keeps pc 0 reserved for "no stable site"
	// and gives each method a private 64K instruction-index window.
	siteBase := uint64(f.M.Index()+1) << 16
	maxInstr := e.MaxInstructions
	perInstr := e.Machine.IssueCycles
	if !compiled {
		perInstr += e.Machine.InterpPenalty
	}
	rec := e.Rec != nil
	// fm != nil routes the memory ops below through the inline-probe hit
	// lane with a devirtualized fallback; nil is the fully general
	// interface path. See the fastMem field.
	fm := e.fastMem

	// fail synchronizes the faulting pc and returns the trap.
	fail := func(err error) (value.Value, bool, error) {
		f.PC = pc
		return value.Value{}, false, err
	}
	// charge accounts one retired instruction at cost perInstr+extra.
	charge := func(extra uint64) {
		cost := perInstr + extra
		e.S.Cycles += cost
		e.S.Instructions++
		if compiled {
			e.S.CompiledCycles += cost
			e.S.CompiledInstructions++
		}
	}

	for {
		if e.S.Instructions >= maxInstr {
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
		case ir.OpAdd:
			if in.Kind == value.KindInt {
				regs[in.Dst] = value.Int(regs[in.A].Int() + regs[in.B].Int())
			} else {
				v, err := ir.EvalBinary(in.Op, in.Kind, regs[in.A], regs[in.B])
				if err != nil {
					return fail(err)
				}
				regs[in.Dst] = v
			}
		case ir.OpSub:
			if in.Kind == value.KindInt {
				regs[in.Dst] = value.Int(regs[in.A].Int() - regs[in.B].Int())
			} else {
				v, err := ir.EvalBinary(in.Op, in.Kind, regs[in.A], regs[in.B])
				if err != nil {
					return fail(err)
				}
				regs[in.Dst] = v
			}
		case ir.OpMul:
			if in.Kind == value.KindInt {
				regs[in.Dst] = value.Int(regs[in.A].Int() * regs[in.B].Int())
			} else {
				v, err := ir.EvalBinary(in.Op, in.Kind, regs[in.A], regs[in.B])
				if err != nil {
					return fail(err)
				}
				regs[in.Dst] = v
			}
		case ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr,
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
			var taken bool
			if in.Kind == value.KindInt {
				x, y := regs[in.A].Int(), regs[in.B].Int()
				switch in.Cond {
				case ir.CondEQ:
					taken = x == y
				case ir.CondNE:
					taken = x != y
				case ir.CondLT:
					taken = x < y
				case ir.CondLE:
					taken = x <= y
				case ir.CondGT:
					taken = x > y
				case ir.CondGE:
					taken = x >= y
				default:
					return fail(ir.ErrBadOperand)
				}
			} else {
				var err error
				taken, err = ir.EvalCond(in.Cond, in.Kind, regs[in.A], regs[in.B])
				if err != nil {
					return fail(err)
				}
			}
			if taken {
				next = in.Target
			}
		case ir.OpReturn:
			charge(0)
			f.PC = pc
			if in.A == ir.NoReg {
				return value.Value{}, true, nil
			}
			return regs[in.A], true, nil

		case ir.OpGetField:
			obj := regs[in.A]
			if !obj.IsRef() {
				return fail(ErrBadValue)
			}
			if obj.IsNull() {
				return fail(ErrNullDeref)
			}
			addr := obj.Ref() + in.Field.Offset
			if fm != nil {
				var hit bool
				if memStall, hit = fm.LoadHit(addr, e.S.Cycles); !hit {
					memStall = fm.LoadAt(addr, in.Field.Kind.Size(), e.S.Cycles, siteBase|uint64(pc))
				}
			} else {
				memStall = e.Mem.LoadAt(addr, in.Field.Kind.Size(), e.S.Cycles, siteBase|uint64(pc))
			}
			regs[in.Dst] = e.loadHeap(in.Field.Kind, addr)
		case ir.OpPutField:
			obj := regs[in.A]
			if !obj.IsRef() {
				return fail(ErrBadValue)
			}
			if obj.IsNull() {
				return fail(ErrNullDeref)
			}
			addr := obj.Ref() + in.Field.Offset
			if fm != nil {
				var hit bool
				if memStall, hit = fm.StoreHit(addr, e.S.Cycles); !hit {
					memStall = fm.Store(addr, in.Field.Kind.Size(), e.S.Cycles)
				}
			} else {
				memStall = e.Mem.Store(addr, in.Field.Kind.Size(), e.S.Cycles)
			}
			e.storeHeap(addr, regs[in.B])
		case ir.OpGetStatic:
			regs[in.Dst] = e.Prog.Universe.GetStatic(in.Field)
		case ir.OpPutStatic:
			e.Prog.Universe.SetStatic(in.Field, regs[in.A])

		case ir.OpArrayLoad:
			addr, err := e.elemAddr(regs[in.A], regs[in.B])
			if err != nil {
				return fail(err)
			}
			if fm != nil {
				var hit bool
				if memStall, hit = fm.LoadHit(addr, e.S.Cycles); !hit {
					memStall = fm.LoadAt(addr, in.Kind.Size(), e.S.Cycles, siteBase|uint64(pc))
				}
			} else {
				memStall = e.Mem.LoadAt(addr, in.Kind.Size(), e.S.Cycles, siteBase|uint64(pc))
			}
			regs[in.Dst] = e.loadHeap(in.Kind, addr)
		case ir.OpArrayStore:
			addr, err := e.elemAddr(regs[in.A], regs[in.B])
			if err != nil {
				return fail(err)
			}
			if fm != nil {
				var hit bool
				if memStall, hit = fm.StoreHit(addr, e.S.Cycles); !hit {
					memStall = fm.Store(addr, in.Kind.Size(), e.S.Cycles)
				}
			} else {
				memStall = e.Mem.Store(addr, in.Kind.Size(), e.S.Cycles)
			}
			e.storeHeap(addr, regs[in.C])
		case ir.OpArrayLen:
			arr := regs[in.A]
			if !arr.IsRef() {
				return fail(ErrBadValue)
			}
			if arr.IsNull() {
				return fail(ErrNullDeref)
			}
			addr := arr.Ref() + classfile.AuxOffset
			if fm != nil {
				var hit bool
				if memStall, hit = fm.LoadHit(addr, e.S.Cycles); !hit {
					memStall = fm.LoadAt(addr, 4, e.S.Cycles, siteBase|uint64(pc))
				}
			} else {
				memStall = e.Mem.LoadAt(addr, 4, e.S.Cycles, siteBase|uint64(pc))
			}
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
			if cap(e.argbuf) < len(in.Args) {
				e.argbuf = make([]value.Value, len(in.Args))
			}
			args := e.argbuf[:len(in.Args)]
			for i, r := range in.Args {
				args[i] = regs[r]
			}
			f.PC = next
			if err := e.push(callee, args, in.Dst); err != nil {
				return value.Value{}, false, err
			}
			return value.Value{}, false, nil

		case ir.OpSink:
			e.sink(regs[in.A])

		case ir.OpPrefetch:
			if addr, ok := e.prefetchAddr(regs, in.Addr); ok {
				out := e.Mem.Prefetch(addr, in.Guarded, e.S.Cycles)
				if rec {
					e.notePrefetch(f.M, int(in.Site), out)
				}
			}
		case ir.OpSpecLoad:
			// The guarded speculative load: never faults; fills the DTLB
			// and caches like a (non-blocking) load; architecturally
			// yields the loaded word, or null when out of bounds. The word
			// is a maybe-pointer (KindSpecRef, not KindRef): it must never
			// become a GC root, or a stale/garbage word pins or crashes
			// the collector.
			if addr, ok := e.prefetchAddr(regs, in.Addr); ok {
				out := e.Mem.Prefetch(addr, true, e.S.Cycles)
				if rec {
					e.notePrefetch(f.M, int(in.Site), out)
				}
				regs[in.Dst] = value.SpecRef(e.Heap.Load4(addr))
			} else {
				regs[in.Dst] = value.SpecRef(0)
			}
		default:
			return fail(fmt.Errorf("interp: unimplemented op %s", in.Op))
		}

		if rec && memStall != 0 {
			switch in.Op {
			case ir.OpGetField, ir.OpArrayLoad, ir.OpArrayLen:
				e.noteLoad(f.M, pc, memStall)
			}
		}
		charge(memStall)
		pc = next
	}
}

// prefetchAddr evaluates an address expression; ok is false when the base
// is not a valid in-heap reference (the software guard of Sec. 3.3). The
// base may be a real reference or a spec_load result (a maybe-pointer).
func (e *Engine) prefetchAddr(regs []value.Value, a ir.AddrExpr) (uint32, bool) {
	base := regs[a.Base]
	if (!base.IsRef() && !base.IsSpecRef()) || base.B == 0 {
		return 0, false
	}
	addr := int64(base.Ref()) + int64(a.Disp)
	if a.Index != ir.NoReg {
		idx := regs[a.Index]
		if idx.K != value.KindInt {
			return 0, false
		}
		addr += int64(idx.Int()) * int64(a.Scale)
	}
	if addr < 0 || addr > int64(^uint32(0)) {
		return 0, false
	}
	u := uint32(addr)
	if !e.Heap.Valid(u, 4) {
		return 0, false
	}
	return u, true
}

func (e *Engine) elemAddr(arr, idx value.Value) (uint32, error) {
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
	c := e.Heap.ClassOf(a)
	return a + classfile.HeaderBytes + uint32(i)*c.ElemSize, nil
}

func (e *Engine) loadHeap(k value.Kind, addr uint32) value.Value {
	switch k {
	case value.KindLong, value.KindDouble:
		return value.Value{K: k, B: e.Heap.Load8(addr)}
	default:
		return value.Value{K: k, B: uint64(e.Heap.Load4(addr))}
	}
}

func (e *Engine) storeHeap(addr uint32, v value.Value) {
	switch v.K {
	case value.KindLong, value.KindDouble:
		e.Heap.Store8(addr, v.B)
	default:
		e.Heap.Store4(addr, v.Bits())
	}
}

func constValue(in *ir.Instr) value.Value {
	switch in.Kind {
	case value.KindInt:
		return value.Int(int32(in.Imm))
	case value.KindLong:
		return value.Long(in.Imm)
	case value.KindFloat:
		return value.Float(float32(in.F))
	case value.KindDouble:
		return value.Double(in.F)
	case value.KindRef:
		return value.Null
	}
	return value.Value{}
}

// ---------------------------------------------------------------------------
// Exported execution primitives for the compiled tier.
//
// The compiled tier (internal/compile) executes the same semantics from a
// pre-decoded representation. Everything with subtle invariants — frame
// management, allocation + GC interplay, the prefetch address guard, site
// attribution — stays defined here, single-sourced, and is reached through
// these thin exports.

// PushCall dispatches and pushes an activation of m, counting the
// invocation through the Dispatcher exactly like an interpreted call.
func (e *Engine) PushCall(m *ir.Method, args []value.Value, retReg ir.Reg) error {
	return e.push(m, args, retReg)
}

// TopFrame returns the current top activation. The pointer is only valid
// until the next PushCall (the frame stack may grow and move).
func (e *Engine) TopFrame() *Frame { return &e.frames[len(e.frames)-1] }

// PopFrame pops the top activation and delivers its return value to the
// caller's return register — exactly the Run loop's frame retirement.
// The caller must ensure at least one frame remains below.
func (e *Engine) PopFrame(v value.Value) {
	f := &e.frames[len(e.frames)-1]
	retReg := f.RetReg
	e.frames = e.frames[:len(e.frames)-1]
	if retReg != ir.NoReg {
		e.frames[len(e.frames)-1].Regs[retReg] = v
	}
}

// Threaded exposes the frame's pre-decoded executor so the compiled tier
// can decide whether a callee can be run without yielding to Run.
func (f *Frame) Threaded() ThreadedCode { return f.threaded }

// ArgBuf returns the shared call-argument staging buffer, sized to n.
func (e *Engine) ArgBuf(n int) []value.Value {
	if cap(e.argbuf) < n {
		e.argbuf = make([]value.Value, n)
	}
	return e.argbuf[:n]
}

// AllocObject allocates an instance of c with GC-on-demand, charging
// allocation traffic (and GC cost, when one runs) to e.S.Cycles directly.
func (e *Engine) AllocObject(c *classfile.Class) (uint32, error) { return e.allocObject(c) }

// AllocArray allocates a k[n] array with GC-on-demand; see AllocObject.
func (e *Engine) AllocArray(k value.Kind, n uint32) (uint32, error) { return e.allocArray(k, n) }

// Sink folds v into the run checksum.
func (e *Engine) Sink(v value.Value) { e.sink(v) }

// PrefetchAddr evaluates a prefetch address expression under the software
// guard of Sec. 3.3.
func (e *Engine) PrefetchAddr(regs []value.Value, a ir.AddrExpr) (uint32, bool) {
	return e.prefetchAddr(regs, a)
}

// ElemAddr resolves an array element address with full null/kind/bounds
// checking.
func (e *Engine) ElemAddr(arr, idx value.Value) (uint32, error) { return e.elemAddr(arr, idx) }

// NotePrefetch attributes one prefetch outcome to its emitting site.
// Callers guard on e.Rec != nil.
func (e *Engine) NotePrefetch(m *ir.Method, site int, out telemetry.PrefetchOutcome) {
	e.notePrefetch(m, site, out)
}

// NoteLoad attributes one demand load's stall cycles to its pc. Callers
// guard on e.Rec != nil.
func (e *Engine) NoteLoad(m *ir.Method, pc int, stall uint64) { e.noteLoad(m, pc, stall) }

// ConstValue materializes an OpConst instruction's value.
func ConstValue(in *ir.Instr) value.Value { return constValue(in) }
