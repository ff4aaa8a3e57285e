// Package interp is the execution engine of the simulated VM. It runs IR
// — baseline or prefetch-augmented — over the simulated heap, routing
// every memory access through the machine's memory-system model and
// accounting cycles with the machine's timing model. The engine owns the
// frame stack, the heap and GC interplay, the prefetch address guard,
// per-site attribution and the run's statistics.
//
// Every activation runs on a Code, the pre-decoded micro-op stream of one
// method body in one tier. The VM builds an interpreted Code for every
// method when it is created (BuildInterpreted) and replaces a method's
// Code with a compiled one when the JIT compiles it (Build). Each Code
// records its tier, which sets the accounting: an interpreted micro-op
// retires at the machine's issue cost plus its interpretation penalty and
// is never credited to the compiled-code counters, so the mixed-mode
// compiled fractions of Table 3 arise exactly as on a step-by-step
// interpreter.
//
// Translation resolves operand registers, field offsets, branch targets
// and static-slot lookups once — for compiled code at the same
// compile-at-invocation point where object inspection runs (the paper's
// Sec. 3 hook) — instead of re-decoding every ir.Instr on every
// execution. Every micro-op carries a dense micro-kind specialized for
// one (op, kind, cond) shape; the runner keeps pc, the cycle counter, and
// the retired-instruction counter in locals and dispatches hot kinds
// through a single jump-table switch over a 56-byte hot op record, where
// an ir.Instr is 136 bytes. The cold tail — calls, allocation, prefetch
// address evaluation, the generic arithmetic fallbacks — is a chain of
// per-op Go functions (the classic threaded-code form) over a parallel
// side table, entered from the same loop. Maximal runs of trap-free
// register-only micro-ops are additionally fused into a single dispatch,
// and array addressing holds a one-entry header memo (length + element
// size) that pure heap reads make unobservable.
//
// Semantics are pinned bit for bit to a straightforward one-instruction-
// at-a-time interpreter, which this package's tests keep as their
// reference: every memory access goes through the same MemModel calls
// with the same load-site pcs and the same `now` cycle counts, prefetch
// instructions spliced in by the JIT execute exactly as written, traps
// carry the same causes at the same pcs, and cycle/instruction accounting
// is identical in both tiers. The oracle differ and the golden decision
// traces hold this equivalence down to the byte.
//
// Codes are arena-style: one Code owns one []uop arena and one parallel
// cold-field arena, each sized 1:1 with the IR (BuildInterpreted carves
// every method's arenas out of one allocation each), shared immutably
// across pooled VMs, and the loop's thread state is a field of the
// Engine, so the steady-state loop allocates nothing.
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

// frame is one activation record. The invariants of stack growth and
// register reuse are owned by pushCall and Run.
type frame struct {
	m      *ir.Method
	pc     int
	regs   []value.Value
	retReg ir.Reg // caller register receiving the return value

	// code is the artifact the frame was pushed with. A frame keeps it
	// for its lifetime, so activations pushed before their method was
	// JIT-compiled finish in the interpreted tier.
	code *Code
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

	// Rec, when non-nil, enables per-site memory attribution: the engine
	// aggregates prefetch outcomes (keyed by the instruction's Site, the
	// emitting load) and demand-load stalls (keyed by pc), and FlushSites
	// emits the aggregate. A nil Rec costs one pointer test per memory
	// instruction and zero allocations.
	Rec telemetry.Recorder

	S Stats

	// fastMem pins Mem's concrete type when it is the standard simulator,
	// enabling the devirtualized inline-probe hit lane at the engine's
	// memory-access sites: probe
	// memsim.LoadHit/StoreHit inline, fall into the full access as a
	// direct — not interface — call. nil routes every access through the
	// MemModel interface: any other model (oracle taps, test doubles,
	// FlatMem, or a wrapper that hides a *memsim.Memory behind the
	// interface). Derived by SetMem; the lane choice is made once at
	// wiring, never per access.
	fastMem *memsim.Memory

	// frames is the activation stack. It starts at initialFrames and
	// pushCall doubles it (up to MaxFrames) when a call reaches past its capacity,
	// so a *frame is only valid until the next push: holders re-fetch the
	// top frame after any call. Popped frames keep their register slices
	// for reuse, and growth carries them over, so once the stack has
	// reached a run's depth the call path allocates nothing.
	frames []frame
	// argbuf is the scratch buffer call argument values are staged in
	// before they are copied into the callee frame.
	argbuf []value.Value
	sites  map[siteKey]*siteAgg

	// th is the micro-op loop's execution state; step re-binds it to
	// every activation it runs, so steady-state steps allocate nothing.
	th thread
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
		frames:          make([]frame, 0, initialFrames),
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
// accesses must take the MemModel interface path. The engine routes its
// memory accesses through it: probe LoadHit/StoreHit inline, fall back to
// the full access on a miss.
func (e *Engine) FastMem() *memsim.Memory { return e.fastMem }

// ResetStats clears the per-run statistics and the site attribution.
func (e *Engine) ResetStats() {
	e.S = Stats{}
	e.sites = nil
}

// notePrefetch attributes one prefetch outcome to its emitting site.
// Callers guard on e.Rec != nil.
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

// noteLoad attributes one demand load's stall cycles to its pc. Callers
// guard on e.Rec != nil.
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

// pushCall dispatches m (counting the invocation through the Dispatcher)
// and pushes its activation, growing a full stack first (see frames): a
// *frame taken before the push is stale afterwards.
func (e *Engine) pushCall(m *ir.Method, args []value.Value, retReg ir.Reg) error {
	n := len(e.frames)
	if n >= MaxFrames {
		return ErrStackOverflow
	}
	if n == cap(e.frames) {
		grown := make([]frame, n, min(2*n, MaxFrames))
		copy(grown, e.frames)
		e.frames = grown
	}
	code := e.Disp.Invoke(m, args)
	e.frames = e.frames[:n+1]
	f := &e.frames[n]
	f.m = m
	f.code = code
	f.pc = 0
	f.retReg = retReg
	if cap(f.regs) >= code.numRegs {
		f.regs = f.regs[:code.numRegs]
	} else {
		f.regs = make([]value.Value, code.numRegs)
	}
	na := copy(f.regs, args)
	// A reused register slice carries the previous activation's values;
	// clear the non-argument registers so GC roots and def-before-use
	// behaviour match a freshly zeroed frame.
	tail := f.regs[na:]
	for i := range tail {
		tail[i] = value.Value{}
	}
	return nil
}

// roots enumerates all reference slots in live frames for the collector.
func (e *Engine) roots(visit func(*value.Value)) {
	for fi := range e.frames {
		regs := e.frames[fi].regs
		for i := range regs {
			if regs[i].K == value.KindRef {
				visit(&regs[i])
			}
		}
	}
}

// collect runs a GC and charges its modelled cost: a per-collection
// constant plus 1 cycle per 4 live bytes.
func (e *Engine) collect() {
	live := e.Heap.Collect(e.roots)
	e.S.GCs++
	cost := 50_000 + live/4
	e.S.GCCycles += cost
	e.S.Cycles += cost
}

// allocObject allocates an instance of c with GC-on-demand, charging
// allocation traffic (and GC cost, when one runs) to e.S.Cycles directly.
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

// allocArray allocates a k[n] array with GC-on-demand; see allocObject.
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
	line := e.Machine.L1D.LineBytes
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

// sink folds v into the run checksum (FNV-1a over the payload).
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
	if err := e.pushCall(entry, args, ir.NoReg); err != nil {
		return value.Value{}, err
	}
	var result value.Value
	for len(e.frames) > 0 {
		f := &e.frames[len(e.frames)-1]
		v, done, err := f.code.step(e, f)
		if err != nil {
			// step may have pushed into nested frames without returning
			// here; the faulting frame is whatever is on top now.
			ft := &e.frames[len(e.frames)-1]
			return value.Value{}, &RuntimeError{Method: ft.m, PC: ft.pc, Err: err}
		}
		if done {
			// f may be stale: step can push nested frames and grow the
			// stack before its own frame returns. The returning frame is
			// the top one now.
			if len(e.frames) == 1 {
				e.frames = e.frames[:0]
				result = v
			} else {
				e.popFrame(v)
			}
		}
	}
	return result, nil
}

// prefetchAddr evaluates a prefetch address expression; ok is false when
// the base is not a valid in-heap reference (the software guard of Sec.
// 3.3). The base may be a real reference or a spec_load result (a
// maybe-pointer).
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

// constValue materializes an OpConst instruction's value.
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

// topFrame returns the current top activation. The pointer is only valid
// until the next pushCall (the frame stack may grow and move).
func (e *Engine) topFrame() *frame { return &e.frames[len(e.frames)-1] }

// popFrame pops the top activation and delivers its return value to the
// caller's return register — exactly the Run loop's frame retirement.
// The caller must ensure at least one frame remains below.
func (e *Engine) popFrame(v value.Value) {
	f := &e.frames[len(e.frames)-1]
	retReg := f.retReg
	e.frames = e.frames[:len(e.frames)-1]
	if retReg != ir.NoReg {
		e.frames[len(e.frames)-1].regs[retReg] = v
	}
}

// argBuf returns the shared call-argument staging buffer, sized to n.
func (e *Engine) argBuf(n int) []value.Value {
	if cap(e.argbuf) < n {
		e.argbuf = make([]value.Value, n)
	}
	return e.argbuf[:n]
}
