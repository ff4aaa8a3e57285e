// Package compile_test is a black-box trap-parity check of the engine's
// two tiers, driven only through internal/interp's exported API: Build
// makes the compiled tier's Code, BuildInterpreted the interpreted tier's.
// The directory holds no production code; the engine and its white-box
// tests (which compare the same fault shapes against the step-loop
// reference, accounting included) live in internal/interp. Here each
// shape is checked against the independent oracle interpreter instead:
// the engine must raise the trap class the oracle raises, at the same
// method and pc in both tiers and on both memory lanes, and a lane must
// not change a tier's accounting.
package compile_test

import (
	"errors"
	"testing"

	"strider/internal/arch"
	"strider/internal/classfile"
	"strider/internal/heap"
	"strider/internal/interp"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/oracle"
	"strider/internal/value"
)

// heapBytes sizes both the engine's and the oracle's heap, so the
// newarray-oom shape exhausts the same heap on both sides.
const heapBytes = 1 << 20

// trapProg builds one program per faulting shape: a register holding a
// non-ref (or null) flows into each heap-addressed op.
func trapProg(fault string) *ir.Program {
	u := classfile.NewUniverse()
	cls := u.MustDefineClass("T", nil,
		classfile.FieldSpec{Name: "i", Kind: value.KindInt},
		classfile.FieldSpec{Name: "l", Kind: value.KindLong},
	)
	fI := cls.FieldByName("i")
	fL := cls.FieldByName("l")
	p := ir.NewProgram(u)
	b := ir.NewBuilder(p, nil, "main", value.KindInt)
	null := b.ConstNull()
	num := b.ConstInt(3)
	n := b.ConstInt(4)
	arr := b.NewArray(value.KindInt, n)
	larr := b.NewArray(value.KindLong, n)
	switch fault {
	case "getfield-null":
		b.GetFieldTo(num, null, fI)
	case "getfield8-null":
		b.GetFieldTo(num, null, fL)
	case "getfield-nonref":
		b.GetFieldTo(num, num, fI)
	case "getfield8-nonref":
		b.GetFieldTo(num, num, fL)
	case "putfield-null":
		b.PutField(null, fI, num)
	case "putfield-nonref":
		b.PutField(num, fI, num)
	case "arraylen-null":
		b.ArrayLen(null)
	case "arraylen-nonref":
		b.ArrayLen(num)
	case "arrayload-null":
		b.ArrayLoad(value.KindInt, null, num)
	case "arrayload-nonref":
		b.ArrayLoad(value.KindInt, num, num)
	case "arrayload-badindex":
		b.ArrayLoad(value.KindInt, arr, null)
	case "arrayload-oob":
		b.ArrayLoad(value.KindInt, arr, n)
	case "arrayload8-oob":
		neg := b.ConstInt(-1)
		b.ArrayLoad(value.KindLong, larr, neg)
	case "arraystore-null":
		b.ArrayStore(value.KindInt, null, num, num)
	case "arraystore-oob":
		b.ArrayStore(value.KindInt, arr, n, num)
	case "newarray-negative":
		neg := b.ConstInt(-2)
		b.NewArray(value.KindInt, neg)
	case "newarray-badsize":
		b.NewArray(value.KindInt, null)
	case "newarray-oom":
		b.NewArray(value.KindLong, b.ConstInt(1<<20))
	case "callvirt-null":
		b.CallVirt("anything", false, null)
	case "callvirt-nonref":
		b.CallVirt("anything", false, num)
	default:
		panic("unknown fault " + fault)
	}
	b.Return(num)
	p.Entry = b.Finish()
	return p
}

// tierDisp hands out every method's Code in one tier, as the VM builds it.
type tierDisp struct {
	p        *ir.Program
	compiled bool
	interp   []interp.Code
}

func (d *tierDisp) Invoke(m *ir.Method, _ []value.Value) *interp.Code {
	if d.compiled {
		return interp.Build(m, m.Code, m.NumRegs, d.p.Universe)
	}
	return &d.interp[m.Index()]
}

// run executes a freshly built fault program in one tier on one memory
// lane. The slow lane hides the simulator behind the MemModel interface,
// so SetMem pins no fast lane and every access takes the interface path.
func run(fault string, compiled, slow bool) (interp.Stats, error) {
	p := trapProg(fault)
	machine := arch.Pentium4()
	disp := &tierDisp{p: p, compiled: compiled, interp: interp.BuildInterpreted(p)}
	e := interp.New(p, heap.New(heapBytes, p.Universe), memsim.New(machine), disp, machine)
	if slow {
		e.SetMem(struct{ interp.MemModel }{e.Mem})
	}
	_, err := e.Run(p.Entry, nil)
	return e.S, err
}

func TestHeapTrapParity(t *testing.T) {
	faults := []string{
		"getfield-null", "getfield8-null", "getfield-nonref", "getfield8-nonref",
		"putfield-null", "putfield-nonref",
		"arraylen-null", "arraylen-nonref",
		"arrayload-null", "arrayload-nonref", "arrayload-badindex",
		"arrayload-oob", "arrayload8-oob",
		"arraystore-null", "arraystore-oob",
		"newarray-negative", "newarray-badsize", "newarray-oom",
		"callvirt-null", "callvirt-nonref",
	}
	lane := func(slow bool) func(*testing.T) {
		return func(t *testing.T) {
			for _, fault := range faults {
				t.Run(fault, func(t *testing.T) {
					fp, err := oracle.Run(trapProg(fault), nil, oracle.Config{HeapBytes: heapBytes})
					if err != nil {
						t.Fatalf("oracle: %v", err)
					}
					if fp.Trap == oracle.TrapNone {
						t.Fatalf("oracle did not trap %s", fault)
					}
					var first *interp.RuntimeError
					for _, compiled := range []bool{false, true} {
						s, err := run(fault, compiled, slow)
						var re *interp.RuntimeError
						if !errors.As(err, &re) {
							t.Fatalf("%s (compiled=%v): err = %v, want a RuntimeError", fault, compiled, err)
						}
						if got := oracle.TrapClass(err); got != fp.Trap {
							t.Errorf("%s (compiled=%v): trap class %q, oracle %q", fault, compiled, got, fp.Trap)
						}
						if first == nil {
							first = re
						} else if re.Method.QName() != first.Method.QName() || re.PC != first.PC || re.Err.Error() != first.Err.Error() {
							t.Errorf("tiers disagree on the trap: %s@%d %v vs %s@%d %v",
								first.Method.QName(), first.PC, first.Err, re.Method.QName(), re.PC, re.Err)
						}
						// The other lane must reach the same trap with the same accounting.
						os, oerr := run(fault, compiled, !slow)
						if os != s {
							t.Errorf("%s (compiled=%v): lanes disagree on stats:\n %+v\n %+v", fault, compiled, s, os)
						}
						if oerr == nil || oerr.Error() != err.Error() {
							t.Errorf("%s (compiled=%v): lanes disagree on the trap: %v vs %v", fault, compiled, err, oerr)
						}
					}
				})
			}
		}
	}
	t.Run("fastlane", lane(false))
	t.Run("slowlane", lane(true))
}
