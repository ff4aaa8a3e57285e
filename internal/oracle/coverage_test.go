package oracle

// Tests for the oracle's defensive edges: dynamic-typing traps, the
// prefetch ops it must ignore, digest corner cases, and error plumbing.

import (
	"strings"
	"testing"

	"strider/internal/arch"
	"strider/internal/classfile"
	"strider/internal/heap"
	"strider/internal/ir"
	"strider/internal/value"
)

func TestTrapError(t *testing.T) {
	if got := (&trap{TrapBounds, "9 of 4"}).Error(); got != "out-of-bounds: 9 of 4" {
		t.Errorf("Error() = %q", got)
	}
	if got := (&trap{class: TrapBudget}).Error(); got != "budget" {
		t.Errorf("Error() = %q", got)
	}
}

// TestEvalRejectsWrongKinds pins down the evaluator's defensive paths:
// kinds an instruction can never legally carry must trap, not compute.
func TestEvalRejectsWrongKinds(t *testing.T) {
	r := value.Ref(32)
	if _, tr := arith2(ir.OpAdd, value.KindRef, r, r); tr == nil {
		t.Error("arith2 on refs did not trap")
	}
	if _, tr := arith2(ir.OpShl, value.KindFloat, value.Float(1), value.Float(2)); tr == nil {
		t.Error("float shift did not trap")
	}
	if _, tr := arith2(ir.OpRem, value.KindDouble, value.Double(1), value.Double(2)); tr == nil {
		t.Error("double rem did not trap")
	}
	if _, tr := negate(value.KindRef, r); tr == nil {
		t.Error("negating a ref did not trap")
	}
	if _, tr := convert(value.KindInt, r); tr == nil {
		t.Error("converting from ref did not trap")
	}
	if _, tr := convert(value.KindRef, value.Int(5)); tr == nil {
		t.Error("converting to ref did not trap")
	}
	if _, tr := compare(ir.CondEQ, value.KindUnknown, value.Int(1), value.Int(1)); tr == nil {
		t.Error("comparing unknowns did not trap")
	}
	if _, tr := compare(ir.Cond(99), value.KindInt, value.Int(1), value.Int(1)); tr == nil {
		t.Error("bogus condition did not trap")
	}
}

// badOperandProgram builds programs whose dynamic types are wrong in ways
// the static validator cannot see. The oracle must classify each as a
// bad-operand (or the specific) trap exactly like the engine.
func badOperandProgram(which string) *ir.Program {
	u := classfile.NewUniverse()
	box := u.MustDefineClass("Box", nil, classfile.FieldSpec{Name: "v", Kind: value.KindInt})
	fV := box.FieldByName("v")
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	i := b.ConstInt(5)
	switch which {
	case "getfield-int-base":
		b.Return(b.GetField(i, fV))
	case "putfield-int-base":
		b.PutField(i, fV, i)
		b.Return(i)
	case "arrayload-int-base":
		b.Return(b.ArrayLoad(value.KindInt, i, i))
	case "arrayindex-ref":
		arr := b.NewArray(value.KindInt, b.ConstInt(4))
		b.Return(b.ArrayLoad(value.KindInt, arr, arr))
	case "arraylen-int-base":
		b.Return(b.ArrayLen(i))
	case "arraylen-null":
		n := b.ConstNull()
		b.Return(b.ArrayLen(n))
	case "newarray-ref-len":
		n := b.ConstNull()
		arr := b.NewArray(value.KindInt, n)
		b.Return(b.ArrayLen(arr))
	case "callvirt-int-recv":
		b.Return(b.CallVirt("tag", true, i))
	case "callvirt-null-recv":
		n := b.ConstNull()
		b.Return(b.CallVirt("tag", true, n))
	case "callvirt-no-method":
		o := b.New(box)
		b.Return(b.CallVirt("missing", true, o))
	default:
		panic("unknown case " + which)
	}
	p.Entry = b.Finish()
	return p
}

func TestDynamicTrapAgreement(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"getfield-int-base", TrapBadOperand},
		{"putfield-int-base", TrapBadOperand},
		{"arrayload-int-base", TrapBadOperand},
		{"arrayindex-ref", TrapBadOperand},
		{"arraylen-int-base", TrapBadOperand},
		{"arraylen-null", TrapNullDeref},
		{"newarray-ref-len", TrapBadOperand},
		{"callvirt-int-recv", TrapBadOperand},
		{"callvirt-null-recv", TrapNullDeref},
		{"callvirt-no-method", TrapNoMethod},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Verify(func() *ir.Program { return badOperandProgram(tc.name) },
				Options{Machines: []*arch.Machine{arch.Pentium4()}, SkipLeakCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reference.Trap != tc.want {
				t.Fatalf("oracle trapped %q, want %q", rep.Reference.Trap, tc.want)
			}
			if !rep.OK() {
				t.Fatalf("%s", rep.Summary())
			}
		})
	}
}

// TestUnknownOpTrapAgreement: an opcode past the table fails validation,
// and a program that carries one anyway traps as bad-operand on the oracle
// and, through TrapClass of the engine's error, in every cell.
func TestUnknownOpTrapAgreement(t *testing.T) {
	build := func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		p.Entry = p.Define(&ir.Method{Name: "main", Returns: value.KindInt, NumRegs: 1, Code: []ir.Instr{
			{Op: ir.OpConst, Dst: 0, Kind: value.KindInt, Imm: 7},
			{Op: ir.Op(250)},
			{Op: ir.OpReturn, A: 0},
		}})
		return p
	}
	if err := ir.Validate(build().Entry); err == nil {
		t.Error("validation accepted an unknown opcode")
	}
	rep, err := Verify(build, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reference.Trap != TrapBadOperand {
		t.Errorf("oracle trapped %q, want %q", rep.Reference.Trap, TrapBadOperand)
	}
	for _, c := range rep.Cells {
		if c.Fingerprint.Trap != TrapBadOperand {
			t.Errorf("%s: engine trapped %q, want %q", c.Config, c.Fingerprint.Trap, TrapBadOperand)
		}
	}
	if !rep.OK() {
		t.Fatalf("%s", rep.Summary())
	}
}

// TestOraclePrefetchBlind: a hand-assembled method carrying the
// JIT-private ops must execute as if they were absent — no loads recorded,
// register contents only ever feeding prefetch addresses.
func TestOraclePrefetchBlind(t *testing.T) {
	u := classfile.NewUniverse()
	box := u.MustDefineClass("Box", nil, classfile.FieldSpec{Name: "v", Kind: value.KindInt})
	fV := box.FieldByName("v")
	p := ir.NewProgram(u)
	m := &ir.Method{Name: "main", Returns: value.KindInt, NumRegs: 4, Code: []ir.Instr{
		{Op: ir.OpNew, Dst: 0, Class: box},
		{Op: ir.OpConst, Dst: 1, Kind: value.KindInt, Imm: 41},
		{Op: ir.OpPutField, A: 0, B: 1, Field: fV},
		{Op: ir.OpSpecLoad, Dst: 2, Addr: ir.AddrExpr{Base: 0, Index: ir.NoReg}, A: ir.NoReg},
		{Op: ir.OpPrefetch, Addr: ir.AddrExpr{Base: 2, Index: ir.NoReg, Disp: 64}, A: ir.NoReg, Dst: ir.NoReg},
		{Op: ir.OpReturn, A: 1},
	}}
	if err := ir.Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	p.Entry = p.Define(m)
	fp, err := Run(p, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Trap != TrapNone {
		t.Fatalf("trap %q", fp.Trap)
	}
	if !fp.Result.Equal(value.Int(41)) {
		t.Fatalf("result %v", fp.Result)
	}
	if fp.Loads != 0 {
		t.Fatalf("prefetch ops recorded %d demand loads", fp.Loads)
	}
}

// TestOracleObjectOOM drives allocObject through its collect-and-retry
// path to exhaustion: the whole list stays live, so no amount of GC helps.
func TestOracleObjectOOM(t *testing.T) {
	fp, err := Run(buildListSum(5000, 0), nil, Config{HeapBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Trap != TrapOutOfMemory {
		t.Fatalf("trap %q, want %q", fp.Trap, TrapOutOfMemory)
	}
	if fp.GCs == 0 {
		t.Fatalf("expected collections before giving up")
	}
}

// TestGraphDigestWideAndInvalid covers wide fields and elements, ref
// arrays, and the sentinel for refs that do not point at a live object.
func TestGraphDigestWideAndInvalid(t *testing.T) {
	u := classfile.NewUniverse()
	wide := u.MustDefineClass("Wide", nil,
		classfile.FieldSpec{Name: "l", Kind: value.KindLong},
		classfile.FieldSpec{Name: "d", Kind: value.KindDouble},
		classfile.FieldSpec{Name: "self", Kind: value.KindRef},
		classfile.FieldSpec{Name: "obj", Kind: value.KindRef, Static: true},
		classfile.FieldSpec{Name: "arr", Kind: value.KindRef, Static: true},
	)
	fL, fD, fSelf := wide.FieldByName("l"), wide.FieldByName("d"), wide.FieldByName("self")
	sObj, sArr := wide.FieldByName("obj"), wide.FieldByName("arr")
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	o := b.New(wide)
	b.PutField(o, fL, b.ConstLong(1<<40))
	b.PutField(o, fD, b.ConstDouble(2.5))
	b.PutField(o, fSelf, o) // a cycle: canonicalisation must terminate
	b.PutStatic(sObj, o)
	n := b.ConstInt(3)
	da := b.NewArray(value.KindDouble, n)
	b.ArrayStore(value.KindDouble, da, b.ConstInt(1), b.ConstDouble(9.25))
	ra := b.NewArray(value.KindRef, n)
	b.ArrayStore(value.KindRef, ra, b.ConstInt(0), o)
	b.ArrayStore(value.KindRef, ra, b.ConstInt(2), da)
	b.PutStatic(sArr, ra)
	z := b.ConstInt(0)
	b.Return(z)
	p.Entry = b.Finish()

	fp, err := Run(p, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Trap != TrapNone {
		t.Fatalf("trap %q", fp.Trap)
	}
	// Re-create the final heap to probe GraphDigest directly with a bogus
	// extra root: it must fold the sentinel, not crash, and must change
	// the digest.
	h := heap.New(1<<20, u)
	o2 := &oracleVM{prog: p, h: h, maxSteps: 1 << 20, fp: &Fingerprint{}}
	res, tr := o2.exec(p.Entry, nil)
	if tr != nil {
		t.Fatal(tr)
	}
	clean := GraphDigest(h, u, res)
	bogus := GraphDigest(h, u, res, value.Ref(12)) // below heap base: invalid
	if clean == bogus {
		t.Fatalf("invalid ref did not perturb the digest")
	}
	if clean != fp.GraphDigest {
		t.Fatalf("replayed digest %016x != fingerprint %016x", clean, fp.GraphDigest)
	}
}

func TestVerifyPropagatesOracleMisuse(t *testing.T) {
	build := func() *ir.Program { return ir.NewProgram(classfile.NewUniverse()) }
	_, err := Verify(build, Options{})
	if err == nil || !strings.Contains(err.Error(), "no entry") {
		t.Fatalf("err = %v", err)
	}
}

// TestCompileLeakCheckOnTrappingProgram: a program that traps still leaves
// a populated heap worth inspecting; the check must run, not bail.
func TestCompileLeakCheckOnTrappingProgram(t *testing.T) {
	build := func() *ir.Program { return trapProgram(TrapBounds) }
	if leaks := CompileLeakCheck(build, arch.AthlonMP(), 0, heap.GCSlidingCompact); len(leaks) > 0 {
		t.Fatalf("leaks: %v", leaks)
	}
}
