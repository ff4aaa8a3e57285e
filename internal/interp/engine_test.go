// Tests of the engine primitives the micro-ops are built on.
package interp

import (
	"errors"
	"testing"

	"strider/internal/classfile"
	"strider/internal/heap"
	"strider/internal/ir"
	"strider/internal/value"
)

func TestConstValueKinds(t *testing.T) {
	for _, tc := range []struct {
		in   ir.Instr
		want value.Value
	}{
		{ir.Instr{Kind: value.KindInt, Imm: -3}, value.Int(-3)},
		{ir.Instr{Kind: value.KindLong, Imm: 1 << 40}, value.Long(1 << 40)},
		{ir.Instr{Kind: value.KindFloat, F: 1.5}, value.Float(1.5)},
		{ir.Instr{Kind: value.KindDouble, F: 2.25}, value.Double(2.25)},
		{ir.Instr{Kind: value.KindRef}, value.Null},
		{ir.Instr{Kind: value.KindInvalid}, value.Value{}},
	} {
		if got := constValue(&tc.in); got != tc.want {
			t.Errorf("constValue(%v) = %v, want %v", tc.in.Kind, got, tc.want)
		}
	}
}

// TestPrefetchAddrGuard walks the software guard of Sec. 3.3: only an
// in-heap address computed from a live base (or a maybe-pointer) and an
// int index passes.
func TestPrefetchAddrGuard(t *testing.T) {
	p := ir.NewProgram(classfile.NewUniverse())
	e := newEngine(p, newThreadedDisp(p, nil, false))
	arr, err := e.allocArray(value.KindInt, 16)
	if err != nil {
		t.Fatal(err)
	}
	regs := []value.Value{value.Ref(arr), value.Int(3), value.Long(3), value.SpecRef(arr), value.Int(1 << 30)}
	for _, tc := range []struct {
		name string
		a    ir.AddrExpr
		ok   bool
	}{
		{"base", ir.AddrExpr{Base: 0, Index: ir.NoReg}, true},
		{"indexed", ir.AddrExpr{Base: 0, Index: 1, Scale: 4, Disp: 16}, true},
		{"specref-base", ir.AddrExpr{Base: 3, Index: ir.NoReg}, true},
		{"int-base", ir.AddrExpr{Base: 1, Index: ir.NoReg}, false},
		{"long-index", ir.AddrExpr{Base: 0, Index: 2, Scale: 4}, false},
		{"negative", ir.AddrExpr{Base: 0, Index: ir.NoReg, Disp: -int32(arr) - 4}, false},
		{"past-4g", ir.AddrExpr{Base: 0, Index: 4, Scale: 8}, false},
		{"out-of-heap", ir.AddrExpr{Base: 0, Index: ir.NoReg, Disp: 1 << 24}, false},
	} {
		if _, ok := e.prefetchAddr(regs, tc.a); ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
	}
}

// TestOutOfMemoryAfterCollection fills the heap with live objects: an
// allocation that still fails after its collection reports the heap's
// error.
func TestOutOfMemoryAfterCollection(t *testing.T) {
	u := classfile.NewUniverse()
	box := u.MustDefineClass("Box", nil, classfile.FieldSpec{Name: "v", Kind: value.KindLong})
	p := ir.NewProgram(u)
	// An 8 KiB heap: the 1024-slot array keeping every box live takes
	// half of it, and the boxes cannot fit in the rest.
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	keep := b.NewArray(value.KindRef, b.ConstInt(1024))
	i := b.ConstInt(0)
	loop := b.Here()
	b.ArrayStore(value.KindRef, keep, i, b.New(box))
	b.IncInt(i, 1)
	b.Goto(loop)
	p.Entry = b.Finish()
	e := newEngine(p, newThreadedDisp(p, nil, false))
	e.Heap = heap.New(1<<13, u)
	if _, err := e.Run(p.Entry, nil); !errors.Is(err, heap.ErrOutOfMemory) {
		t.Fatalf("err = %v, want out of memory", err)
	}
	if e.S.GCs == 0 {
		t.Error("no collection ran before the allocation failed")
	}
	if _, err := e.allocArray(value.KindInt, 1<<20); !errors.Is(err, heap.ErrOutOfMemory) {
		t.Errorf("oversized array: err = %v, want out of memory", err)
	}
}
