// Package progfuzz generates structured, deterministic IR programs for
// differential fuzzing of the prefetching stack. Every generated program
// is valid, terminating, and trap-free by construction, so any
// disagreement between the reference oracle and the JIT+memsim stack is a
// real semantics bug, never a malformed input.
//
// A seed fully determines the program: the low four bits pick a scenario
// (one per memory-access shape the paper's mechanisms react to, plus
// adversarial variants), and the remaining bits drive a private
// splitmix64 stream for the shape parameters. The shapes deliberately
// include the cases most likely to expose unsound prefetching:
//
//   - linked-list chases, including null-terminated chains shorter than
//     the prefetch distance and loops that exit early mid-chain;
//   - array walks with stride zero (the same address every iteration),
//     unit and large strides, cache-line-aliasing offset pairs, and
//     phased strides that flip per iteration on a data test (the shape
//     that divides dynamic inspection from static prediction);
//   - loop nests whose inner loops have tiny trip counts;
//   - multi-level object-graph dereferences (o.a.b.v);
//   - allocation inside the measured loop (moving the frontier under the
//     prefetcher) and virtual dispatch on mixed receiver classes;
//   - long/float/double arithmetic with conversions.
package progfuzz

import (
	"fmt"
	"strconv"
	"strings"

	"strider/internal/classfile"
	"strider/internal/ir"
	"strider/internal/value"
)

// Prefix marks a workload name as a generated program instead of a
// registered benchmark analog: "fuzz:<seed>" with a decimal or 0x-hex
// seed.
const Prefix = "fuzz:"

// Seed reports whether name is a "fuzz:<seed>" program name and, if so,
// its seed. A name with the prefix but an unparsable seed reports false.
func Seed(name string) (uint64, bool) {
	if !strings.HasPrefix(name, Prefix) {
		return 0, false
	}
	seed, err := strconv.ParseUint(strings.TrimPrefix(name, Prefix), 0, 64)
	if err != nil {
		return 0, false
	}
	return seed, true
}

// NumScenarios is the number of distinct generator scenarios; seed&0xF
// selects one (values >= NumScenarios compose several shapes).
const NumScenarios = 16

// prng is a splitmix64 stream: tiny, seedable, and stable across Go
// releases — corpus seeds must reproduce the same program forever.
type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [lo, hi].
func (r *prng) intn(lo, hi int32) int32 {
	if hi <= lo {
		return lo
	}
	return lo + int32(r.next()%uint64(hi-lo+1))
}

// gen carries the shared skeleton every shape emits into.
type gen struct {
	r             *prng
	b             *ir.Builder
	sum           ir.Reg // int accumulator every shape folds into
	node          *classfile.Class
	obj           *classfile.Class
	base, derived *classfile.Class
	fVal, fNext, fData,
	fA, fB, fV, fK *classfile.Field
}

// Describe names the scenario a seed selects, for logs and failure
// reports.
func Describe(seed uint64) string {
	names := []string{
		"list-chase", "list-short-chain", "list-early-exit", "list-alloc-in-loop",
		"array-stride-1", "array-stride-0", "array-stride-large", "array-line-alias",
		"nested-small-trip", "deref-chain", "mixed-kinds", "virtual-dispatch",
		"array-phased-stride", "combo-3", "combo-2", "combo-3",
	}
	return fmt.Sprintf("seed=%#x scenario=%s", seed, names[seed&0xF])
}

// Program deterministically generates the program for a seed.
func Program(seed uint64) *ir.Program {
	u := classfile.NewUniverse()
	node := u.MustDefineClass("Node", nil,
		classfile.FieldSpec{Name: "val", Kind: value.KindInt},
		classfile.FieldSpec{Name: "next", Kind: value.KindRef},
		classfile.FieldSpec{Name: "data", Kind: value.KindRef},
	)
	obj := u.MustDefineClass("Obj", nil,
		classfile.FieldSpec{Name: "a", Kind: value.KindRef},
		classfile.FieldSpec{Name: "b", Kind: value.KindRef},
		classfile.FieldSpec{Name: "v", Kind: value.KindInt},
	)
	base := u.MustDefineClass("Base", nil, classfile.FieldSpec{Name: "k", Kind: value.KindInt})
	derived := u.MustDefineClass("Derived", base)
	fK := base.FieldByName("k")
	p := ir.NewProgram(u)

	// Virtual hierarchy: Base.tag returns k, Derived.tag returns 3k.
	bb := ir.NewBuilder(p, base, "tag", value.KindInt, value.KindRef)
	bb.Return(bb.GetField(bb.Param(0), fK))
	bb.Finish()
	db := ir.NewBuilder(p, derived, "tag", value.KindInt, value.KindRef)
	db.Return(db.Arith(ir.OpMul, value.KindInt, db.GetField(db.Param(0), fK), db.ConstInt(3)))
	db.Finish()

	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	g := &gen{
		r: &prng{s: seed ^ 0xD1B54A32D192ED03}, b: b, node: node, obj: obj,
		base: base, derived: derived,
		fVal: node.FieldByName("val"), fNext: node.FieldByName("next"),
		fData: node.FieldByName("data"),
		fA:    obj.FieldByName("a"), fB: obj.FieldByName("b"), fV: obj.FieldByName("v"),
		fK: fK,
	}
	g.sum = b.ConstInt(0)

	shapes := []func(){
		func() { g.listChase(g.r.intn(40, 160), false, false) },
		func() { g.listChase(g.r.intn(1, 3), false, false) }, // shorter than prefetch distance
		func() { g.listChase(g.r.intn(40, 160), true, false) },
		func() { g.listChase(g.r.intn(30, 90), false, true) },
		func() { g.arrayWalk(g.r.intn(64, 256), 1, 0) },
		func() { g.arrayWalk(g.r.intn(64, 256), 0, 0) }, // zero stride
		func() { g.arrayWalk(g.r.intn(128, 256), g.r.intn(5, 19), g.r.intn(0, 3)) },
		func() { g.lineAlias(g.r.intn(2048, 4096)) },
		func() { g.nested(g.r.intn(16, 48), g.r.intn(1, 3)) },
		func() { g.derefChain(g.r.intn(24, 96)) },
		func() { g.mixedKinds(g.r.intn(48, 128)) },
		func() { g.virtualDispatch(g.r.intn(32, 96)) },
		func() { g.arrayPhased(g.r.intn(96, 224), g.r.intn(1, 3), g.r.intn(5, 11)) },
	}
	switch sc := int(seed & 0xF); {
	case sc < len(shapes):
		shapes[sc]()
	default:
		// Compose several randomly chosen shapes in one program.
		n := 2 + sc%2
		for i := 0; i < n; i++ {
			shapes[int(g.r.next()%uint64(len(shapes)))]()
		}
	}

	b.Sink(g.sum)
	b.Return(g.sum)
	p.Entry = b.Finish()
	return p
}

// addTo folds v into the running checksum register.
func (g *gen) addTo(v ir.Reg) {
	g.b.ArithTo(g.sum, ir.OpAdd, value.KindInt, g.sum, v)
}

// forLoop emits `for i = 0; i < n; i++ { body(i) }` and returns nothing;
// body receives the induction register.
func (g *gen) forLoop(n int32, body func(i ir.Reg)) {
	b := g.b
	i := b.ConstInt(0)
	lim := b.ConstInt(n)
	cond, top := b.NewLabel(), b.NewLabel()
	b.Goto(cond)
	b.Bind(top)
	body(i)
	b.IncInt(i, 1)
	b.Bind(cond)
	b.Br(value.KindInt, ir.CondLT, i, lim, top)
}

// buildList emits code building an n-node list (head register returned);
// vals are i*mult. allocExtra attaches a data node per element, churning
// the allocation frontier.
func (g *gen) buildList(n, mult int32, allocExtra bool) ir.Reg {
	b := g.b
	head := b.ConstNull()
	g.forLoop(n, func(i ir.Reg) {
		nd := b.New(g.node)
		v := b.Arith(ir.OpMul, value.KindInt, i, b.ConstInt(mult))
		b.PutField(nd, g.fVal, v)
		b.PutField(nd, g.fNext, head)
		if allocExtra {
			ex := b.New(g.node)
			b.PutField(ex, g.fVal, i)
			b.PutField(nd, g.fData, ex)
		}
		b.MoveTo(head, nd)
	})
	return head
}

// listChase: the paper's core pattern — walk a null-terminated chain,
// optionally exiting early when a value matches, optionally allocating
// inside the traversal loop.
func (g *gen) listChase(n int32, earlyExit, allocInLoop bool) {
	b := g.b
	head := g.buildList(n, g.r.intn(1, 7), false)
	cur := b.NewReg()
	b.MoveTo(cur, head)
	null := b.ConstNull()
	cond, top, done := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Goto(cond)
	b.Bind(top)
	v := b.GetField(cur, g.fVal)
	g.addTo(v)
	if earlyExit {
		// Exit mid-chain: everything after the exit must stay untouched
		// even though prefetches for it may already be in flight.
		b.Br(value.KindInt, ir.CondEQ, v, b.ConstInt(g.r.intn(5, 60)), done)
	}
	if allocInLoop {
		ex := b.New(g.node)
		b.PutField(ex, g.fVal, v)
		b.PutField(cur, g.fData, ex)
	}
	nx := b.GetField(cur, g.fNext)
	b.MoveTo(cur, nx)
	b.Bind(cond)
	b.Br(value.KindRef, ir.CondNE, cur, null, top)
	b.Bind(done)
}

// arrayWalk: sum an int array with the given stride. stride 0 reads the
// same element every iteration for a fixed trip count (the degenerate
// stride the detector must not misread); offset shifts the start.
func (g *gen) arrayWalk(n, stride, offset int32) {
	b := g.b
	arr := b.NewArray(value.KindInt, b.ConstInt(n))
	g.forLoop(n, func(i ir.Reg) {
		v := b.Arith(ir.OpXor, value.KindInt, i, b.ConstInt(0x2B))
		b.ArrayStore(value.KindInt, arr, i, v)
	})
	if stride == 0 {
		idx := b.ConstInt(offset % n)
		g.forLoop(g.r.intn(16, 64), func(ir.Reg) {
			v := b.ArrayLoad(value.KindInt, arr, idx)
			g.addTo(v)
		})
		return
	}
	j := b.ConstInt(offset)
	lim := b.ConstInt(n)
	cond, top := b.NewLabel(), b.NewLabel()
	b.Goto(cond)
	b.Bind(top)
	v := b.ArrayLoad(value.KindInt, arr, j)
	g.addTo(v)
	b.ArithTo(j, ir.OpAdd, value.KindInt, j, b.ConstInt(stride))
	b.Bind(cond)
	b.Br(value.KindInt, ir.CondLT, j, lim, top)
}

// arrayPhased: a walk whose stride flips between two values depending on
// a per-iteration data test (index parity) — a phased stride. Dynamic
// inspection sees the blend and judges it against the dominance threshold;
// a static induction analysis sees two disagreeing steps and must predict
// nothing. Either way the prefetches it does or does not get must leave
// the checksum untouched — the static-vs-dynamic divergence adversary.
func (g *gen) arrayPhased(n, strideA, strideB int32) {
	b := g.b
	arr := b.NewArray(value.KindInt, b.ConstInt(n))
	g.forLoop(n, func(i ir.Reg) {
		v := b.Arith(ir.OpXor, value.KindInt, i, b.ConstInt(0x5D))
		b.ArrayStore(value.KindInt, arr, i, v)
	})
	j := b.ConstInt(0)
	lim := b.ConstInt(n)
	cond, top, odd, step := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Goto(cond)
	b.Bind(top)
	v := b.ArrayLoad(value.KindInt, arr, j)
	g.addTo(v)
	par := b.Arith(ir.OpAnd, value.KindInt, v, b.ConstInt(1))
	b.BrIntZero(ir.CondNE, par, odd)
	b.ArithTo(j, ir.OpAdd, value.KindInt, j, b.ConstInt(strideA))
	b.Goto(step)
	b.Bind(odd)
	b.ArithTo(j, ir.OpAdd, value.KindInt, j, b.ConstInt(strideB))
	b.Bind(step)
	b.Bind(cond)
	b.Br(value.KindInt, ir.CondLT, j, lim, top)
}

// lineAlias: two interleaved access streams whose addresses differ by a
// large power-of-two byte offset, so they collide in cache sets while
// their strides are identical — a classic false-sharing-ish adversary for
// prefetch usefulness accounting.
func (g *gen) lineAlias(n int32) {
	b := g.b
	// 1024 ints = 4096 bytes apart: aliases a 4 KiB-way cache set layout.
	gap := int32(1024)
	arr := b.NewArray(value.KindInt, b.ConstInt(n))
	g.forLoop(n, func(i ir.Reg) { b.ArrayStore(value.KindInt, arr, i, i) })
	g.forLoop(n-gap, func(i ir.Reg) {
		lo := b.ArrayLoad(value.KindInt, arr, i)
		hiIdx := b.Arith(ir.OpAdd, value.KindInt, i, b.ConstInt(gap))
		hi := b.ArrayLoad(value.KindInt, arr, hiIdx)
		g.addTo(b.Arith(ir.OpSub, value.KindInt, hi, lo))
	})
}

// nested: an outer loop over a list with a tiny inner array loop — the
// shape the paper's intra-iteration analysis and trip-count heuristics
// carve up.
func (g *gen) nested(outer, innerTrip int32) {
	b := g.b
	head := g.buildList(outer, 3, true)
	arr := b.NewArray(value.KindInt, b.ConstInt(innerTrip))
	g.forLoop(innerTrip, func(i ir.Reg) { b.ArrayStore(value.KindInt, arr, i, i) })
	cur := b.NewReg()
	b.MoveTo(cur, head)
	null := b.ConstNull()
	cond, top := b.NewLabel(), b.NewLabel()
	b.Goto(cond)
	b.Bind(top)
	g.forLoop(innerTrip, func(j ir.Reg) {
		v := b.ArrayLoad(value.KindInt, arr, j)
		w := b.GetField(cur, g.fVal)
		g.addTo(b.Arith(ir.OpAdd, value.KindInt, v, w))
	})
	nx := b.GetField(cur, g.fNext)
	b.MoveTo(cur, nx)
	b.Bind(cond)
	b.Br(value.KindRef, ir.CondNE, cur, null, top)
}

// derefChain: an array of roots each dereferenced two levels deep
// (o.a.b.v), the multi-hop LDG path.
func (g *gen) derefChain(n int32) {
	b := g.b
	roots := b.NewArray(value.KindRef, b.ConstInt(n))
	g.forLoop(n, func(i ir.Reg) {
		leaf := b.New(g.obj)
		b.PutField(leaf, g.fV, i)
		mid := b.New(g.obj)
		b.PutField(mid, g.fB, leaf)
		top := b.New(g.obj)
		b.PutField(top, g.fA, mid)
		b.ArrayStore(value.KindRef, roots, i, top)
	})
	g.forLoop(n, func(i ir.Reg) {
		o := b.ArrayLoad(value.KindRef, roots, i)
		a := b.GetField(o, g.fA)
		bb := b.GetField(a, g.fB)
		g.addTo(b.GetField(bb, g.fV))
	})
}

// mixedKinds: long/double array traffic with conversions folded back to
// the int checksum.
func (g *gen) mixedKinds(n int32) {
	b := g.b
	da := b.NewArray(value.KindDouble, b.ConstInt(n))
	la := b.NewArray(value.KindLong, b.ConstInt(n))
	g.forLoop(n, func(i ir.Reg) {
		d := b.Conv(value.KindDouble, i)
		b.ArrayStore(value.KindDouble, da, i, b.Arith(ir.OpMul, value.KindDouble, d, b.ConstDouble(0.5)))
		l := b.Conv(value.KindLong, i)
		b.ArrayStore(value.KindLong, la, i, b.Arith(ir.OpShl, value.KindLong, l, b.ConstLong(2)))
	})
	facc := b.ConstDouble(0)
	lacc := b.ConstLong(0)
	g.forLoop(n, func(i ir.Reg) {
		b.ArithTo(facc, ir.OpAdd, value.KindDouble, facc, b.ArrayLoad(value.KindDouble, da, i))
		b.ArithTo(lacc, ir.OpAdd, value.KindLong, lacc, b.ArrayLoad(value.KindLong, la, i))
	})
	b.Sink(facc)
	g.addTo(b.Conv(value.KindInt, facc))
	g.addTo(b.Conv(value.KindInt, lacc))
}

// virtualDispatch: mixed receiver classes resolved per element — the
// dispatch itself rides on an inspected header load.
func (g *gen) virtualDispatch(n int32) {
	b := g.b
	arr := b.NewArray(value.KindRef, b.ConstInt(n))
	g.forLoop(n, func(i ir.Reg) {
		rem := b.Arith(ir.OpRem, value.KindInt, i, b.ConstInt(2))
		isOdd, done := b.NewLabel(), b.NewLabel()
		b.BrIntZero(ir.CondNE, rem, isOdd)
		o1 := b.New(g.base)
		b.PutField(o1, g.fK, i)
		b.ArrayStore(value.KindRef, arr, i, o1)
		b.Goto(done)
		b.Bind(isOdd)
		o2 := b.New(g.derived)
		b.PutField(o2, g.fK, i)
		b.ArrayStore(value.KindRef, arr, i, o2)
		b.Bind(done)
	})
	g.forLoop(n, func(i ir.Reg) {
		o := b.ArrayLoad(value.KindRef, arr, i)
		g.addTo(b.CallVirt("tag", true, o))
	})
}
