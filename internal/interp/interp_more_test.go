package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"strider/internal/classfile"
	"strider/internal/interp"
	"strider/internal/ir"
	"strider/internal/telemetry"
	"strider/internal/value"
)

func TestLongArithmeticProgram(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "main", value.KindLong)
	x := b.ConstLong(1 << 40)
	y := b.ConstLong(3)
	z := b.Arith(ir.OpMul, value.KindLong, x, y)
	w := b.Arith(ir.OpShr, value.KindLong, z, b.ConstLong(2))
	b.Return(w)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Long() != (3<<40)>>2 {
		t.Errorf("long math = %v", got)
	}
}

func TestLongFieldsAndArrays(t *testing.T) {
	u := emptyUniverse()
	c := u.MustDefineClass("W", nil,
		classfile.FieldSpec{Name: "l", Kind: value.KindLong},
	)
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindLong)
	o := b.New(c)
	v := b.ConstLong(0x1122334455667788)
	b.PutField(o, c.FieldByName("l"), v)
	three := b.ConstInt(3)
	arr := b.NewArray(value.KindLong, three)
	one := b.ConstInt(1)
	back := b.GetField(o, c.FieldByName("l"))
	b.ArrayStore(value.KindLong, arr, one, back)
	out := b.ArrayLoad(value.KindLong, arr, one)
	b.Return(out)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Long() != 0x1122334455667788 {
		t.Errorf("long roundtrip through heap = %x", got.Long())
	}
}

func TestConversionChain(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	d := b.ConstDouble(3.75)
	f := b.Conv(value.KindFloat, d)
	l := b.Conv(value.KindLong, f)
	i := b.Conv(value.KindInt, l)
	b.Return(i)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 3 {
		t.Errorf("conversion chain = %v", got)
	}
}

func TestStaticsThroughProgram(t *testing.T) {
	u := emptyUniverse()
	c := u.MustDefineClass("G", nil,
		classfile.FieldSpec{Name: "counter", Kind: value.KindInt, Static: true},
	)
	fCnt := c.FieldByName("counter")
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	ten := b.ConstInt(10)
	i, end := func() (ir.Reg, func()) {
		i := b.ConstInt(0)
		cond := b.NewLabel()
		body := b.NewLabel()
		b.Goto(cond)
		b.Bind(body)
		return i, func() {
			b.IncInt(i, 1)
			b.Bind(cond)
			b.Br(value.KindInt, ir.CondLT, i, ten, body)
		}
	}()
	_ = i
	cur := b.GetStatic(fCnt)
	two := b.ConstInt(2)
	n2 := b.Arith(ir.OpAdd, value.KindInt, cur, two)
	b.PutStatic(fCnt, n2)
	end()
	out := b.GetStatic(fCnt)
	b.Return(out)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	got, err := e.Run(p.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 20 {
		t.Errorf("static accumulation = %v", got)
	}
}

func TestVirtualDispatchUnknownMethodTraps(t *testing.T) {
	u := emptyUniverse()
	c := u.MustDefineClass("X", nil)
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	o := b.New(c)
	r := b.CallVirt("nosuch", true, o)
	b.Return(r)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	if _, err := e.Run(p.Entry, nil); err == nil {
		t.Error("dispatch to a missing method must trap")
	}
}

func TestPrefetchInstructionsAreCheap(t *testing.T) {
	// A loop with prefetches retires more instructions than one without,
	// but each prefetch costs only issue cycles.
	u := emptyUniverse()
	p := ir.NewProgram(u)
	mk := func(name string, withPrefetch bool) *ir.Method {
		b := ir.NewBuilder(p, nil, name, value.KindInt, value.KindRef, value.KindInt)
		arr, n := b.Param(0), b.Param(1)
		acc := b.ConstInt(0)
		i := b.ConstInt(0)
		cond := b.NewLabel()
		body := b.NewLabel()
		b.Goto(cond)
		b.Bind(body)
		v := b.ArrayLoad(value.KindInt, arr, i)
		b.ArithTo(acc, ir.OpAdd, value.KindInt, acc, v)
		if withPrefetch {
			b.Self().Code = append(b.Self().Code, ir.Instr{
				Op:   ir.OpPrefetch,
				Addr: ir.AddrExpr{Base: arr, Index: i, Scale: 4, Disp: 16 + 256},
			})
		}
		b.IncInt(i, 1)
		b.Bind(cond)
		b.Br(value.KindInt, ir.CondLT, i, n, body)
		b.Return(acc)
		return b.Finish()
	}
	plain := mk("plain", false)
	pf := mk("pf", true)

	run := func(m *ir.Method) interp.Stats {
		e := newEngine(p, interpOnly)
		arr, err := e.Heap.AllocArray(value.KindInt, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(m, []value.Value{value.Ref(arr), value.Int(4096)}); err != nil {
			t.Fatal(err)
		}
		return e.S
	}
	s1 := run(plain)
	s2 := run(pf)
	if s2.Instructions <= s1.Instructions {
		t.Error("prefetch instructions must be retired")
	}
	// Issue overhead only: per-instruction cost of the extra prefetches is
	// bounded by interp cost + issue.
	extra := s2.Instructions - s1.Instructions
	maxPer := newEngine(p, interpOnly).Machine.IssueCycles + newEngine(p, interpOnly).Machine.InterpPenalty
	if s2.Cycles > s1.Cycles+extra*(maxPer+1) {
		t.Errorf("prefetches too expensive: %d vs %d (+%d instrs)", s2.Cycles, s1.Cycles, extra)
	}
}

func TestSinkAllKinds(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	b.Sink(b.ConstInt(1))
	b.Sink(b.ConstLong(2))
	b.Sink(b.ConstDouble(2.5))
	b.Sink(b.ConstNull())
	z := b.ConstInt(0)
	b.Return(z)
	p.Entry = b.Finish()
	e := newEngine(p, interpOnly)
	if _, err := e.Run(p.Entry, nil); err != nil {
		t.Fatal(err)
	}
	if e.S.Checksum == 0 {
		t.Error("sink of mixed kinds produced no checksum")
	}
}

// scriptedMem charges a fixed stall per load and store and reports
// prefetch outcomes round-robin, so attribution can be checked exactly.
type scriptedMem struct{ n int }

func (*scriptedMem) LoadAt(addr, size uint32, now, pc uint64) uint64 { return 10 }
func (*scriptedMem) Store(addr, size uint32, now uint64) uint64      { return 3 }
func (m *scriptedMem) Prefetch(addr uint32, guarded bool, now uint64) telemetry.PrefetchOutcome {
	outs := []telemetry.PrefetchOutcome{telemetry.PrefetchFetched, telemetry.PrefetchUseless,
		telemetry.PrefetchDroppedTLB, telemetry.PrefetchDroppedQueue}
	m.n++
	return outs[(m.n-1)%len(outs)]
}

// siteLog collects the Site events a flush emits.
type siteLog struct {
	telemetry.Nop
	events []telemetry.SiteEvent
}

func (l *siteLog) Site(ev telemetry.SiteEvent) { l.events = append(l.events, ev) }

// TestSiteAttribution pins FlushSites: prefetch outcomes aggregate per
// emitting site and load stalls per pc, events come out ordered by method
// name with prefetch sites first, and a flush (or ResetStats) clears the
// aggregate.
func TestSiteAttribution(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	var helper *ir.Method
	{
		// ::b(arr) loads the array's length: one load site.
		b := ir.NewBuilder(p, nil, "b", value.KindInt, value.KindRef)
		b.Return(b.ArrayLen(b.Param(0)))
		helper = b.Finish()
	}
	b := ir.NewBuilder(p, nil, "a", value.KindInt)
	arr := b.NewArray(value.KindInt, b.ConstInt(8))
	i, n := b.ConstInt(0), b.ConstInt(4)
	loop, done := b.NewLabel(), b.NewLabel()
	b.Bind(loop)
	b.Br(value.KindInt, ir.CondGE, i, n, done)
	b.ArrayLoad(value.KindInt, arr, i)
	b.IncInt(i, 1)
	b.Goto(loop)
	b.Bind(done)
	r := b.Call(helper, arr)
	b.Return(r)
	m := b.Finish()
	// Two prefetch sites ahead of the return, in reverse site order.
	ret := m.Code[len(m.Code)-1]
	m.Code = append(m.Code[:len(m.Code)-1],
		ir.Instr{Op: ir.OpPrefetch, Addr: ir.AddrExpr{Base: arr, Index: ir.NoReg}, Site: 9},
		ir.Instr{Op: ir.OpPrefetch, Addr: ir.AddrExpr{Base: arr, Index: ir.NoReg}, Site: 2},
		ir.Instr{Op: ir.OpPrefetch, Addr: ir.AddrExpr{Base: arr, Index: ir.NoReg}, Site: 2},
		ir.Instr{Op: ir.OpPrefetch, Addr: ir.AddrExpr{Base: arr, Index: ir.NoReg}, Site: 2},
		ret)
	p.Entry = m

	for _, compiled := range []bool{interpOnly, compiledOnly} {
		e := newEngine(p, compiled)
		e.SetMem(&scriptedMem{})
		log := &siteLog{}
		e.Rec = log
		if _, err := e.Run(p.Entry, nil); err != nil {
			t.Fatal(err)
		}
		e.FlushSites()
		var got []string
		for _, ev := range log.events {
			got = append(got, fmt.Sprintf("%s %s@%d i%d u%d d%d n%d s%d", ev.Method, ev.Kind, ev.Site,
				ev.Issued, ev.Useless, ev.Dropped, ev.Count, ev.StallCycles))
		}
		loadPC := 0
		for pc, in := range m.Code {
			if in.Op == ir.OpArrayLoad {
				loadPC = pc
			}
		}
		want := []string{
			"::a prefetch@2 i3 u1 d2 n0 s0",
			"::a prefetch@9 i1 u0 d0 n0 s0",
			fmt.Sprintf("::a load@%d i0 u0 d0 n4 s40", loadPC),
			"::b load@0 i0 u0 d0 n1 s10",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("compiled=%v: site events\n%s\nwant\n%s", compiled, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}

		log.events = nil
		e.FlushSites()
		if len(log.events) != 0 {
			t.Errorf("second flush emitted %d events", len(log.events))
		}
		if _, err := e.Run(p.Entry, nil); err != nil {
			t.Fatal(err)
		}
		e.ResetStats()
		e.FlushSites()
		if len(log.events) != 0 || e.S != (interp.Stats{}) {
			t.Errorf("ResetStats left %d site events and stats %+v", len(log.events), e.S)
		}
	}
}

// TestRuntimeErrorNamesSite checks a trap's message names the method and
// pc, and that it unwraps to its cause.
func TestRuntimeErrorNamesSite(t *testing.T) {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	b.Return(b.Arith(ir.OpRem, value.KindInt, b.ConstInt(1), b.ConstInt(0)))
	p.Entry = b.Finish()
	_, err := newEngine(p, interpOnly).Run(p.Entry, nil)
	if want := "runtime error in ::main@2: " + ir.ErrDivZero.Error(); err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
