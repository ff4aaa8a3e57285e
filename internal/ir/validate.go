package ir

import (
	"fmt"

	"strider/internal/value"
)

// Validate performs a structural check of a method: register indices in
// range, branch targets in range, field references present, the method
// ends in a terminator, and every instruction's operand shape matches its
// opcode. It does not type-check dataflow (the simulated VM is dynamically
// checked), but it catches the assembly mistakes that matter in practice.
func Validate(m *Method) error {
	n := len(m.Code)
	if n == 0 {
		return fmt.Errorf("empty method")
	}
	if m.NumRegs < len(m.Params) {
		return fmt.Errorf("NumRegs %d < %d params", m.NumRegs, len(m.Params))
	}
	if m.NumRegs > int(NoReg) {
		return fmt.Errorf("too many registers: %d", m.NumRegs)
	}
	checkReg := func(i int, r Reg, what string) error {
		if r == NoReg {
			return fmt.Errorf("@%d: missing %s register", i, what)
		}
		if int(r) >= m.NumRegs {
			return fmt.Errorf("@%d: %s register %s out of range (%d regs)", i, what, r, m.NumRegs)
		}
		return nil
	}
	var buf []Reg
	for i := range m.Code {
		in := &m.Code[i]
		if in.Op >= opCount {
			return fmt.Errorf("@%d: unknown opcode %s", i, in.Op)
		}
		// Uses must be valid.
		buf = in.Uses(buf[:0])
		for _, r := range buf {
			if err := checkReg(i, r, "source"); err != nil {
				return err
			}
		}
		// Defs must be valid where mandatory.
		if d := in.Defs(); d != NoReg {
			if err := checkReg(i, d, "destination"); err != nil {
				return err
			}
		} else if in.Op != OpCall && in.Op != OpCallVirt {
			switch in.Op {
			case OpConst, OpMove, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpNeg,
				OpAnd, OpOr, OpXor, OpShl, OpShr, OpUshr, OpConv, OpGetField,
				OpGetStatic, OpArrayLoad, OpArrayLen, OpNew, OpNewArray, OpSpecLoad:
				return fmt.Errorf("@%d: %s requires a destination", i, in.Op)
			}
		}
		switch in.Op {
		case OpGoto, OpBr:
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("@%d: branch target %d out of range", i, in.Target)
			}
		case OpGetField, OpPutField, OpGetStatic, OpPutStatic:
			if in.Field == nil {
				return fmt.Errorf("@%d: %s without field", i, in.Op)
			}
			static := in.Op == OpGetStatic || in.Op == OpPutStatic
			if static != in.Field.Static {
				return fmt.Errorf("@%d: %s on field %s with Static=%v", i, in.Op, in.Field.QName(), in.Field.Static)
			}
		case OpNew:
			if in.Class == nil || in.Class.IsArray {
				return fmt.Errorf("@%d: new requires an object class", i)
			}
		case OpNewArray:
			switch in.Kind {
			case value.KindInt, value.KindLong, value.KindFloat, value.KindDouble, value.KindRef:
			default:
				return fmt.Errorf("@%d: newarray of kind %s", i, in.Kind)
			}
		case OpCall:
			if in.Callee == nil {
				return fmt.Errorf("@%d: call without callee", i)
			}
			if len(in.Args) != len(in.Callee.Params) {
				return fmt.Errorf("@%d: call %s with %d args, want %d",
					i, in.Callee.QName(), len(in.Args), len(in.Callee.Params))
			}
		case OpCallVirt:
			if in.Name == "" || len(in.Args) == 0 {
				return fmt.Errorf("@%d: callvirt needs a name and a receiver", i)
			}
		case OpArrayLoad, OpArrayStore:
			if !in.Kind.IsNumeric() && in.Kind != value.KindRef {
				return fmt.Errorf("@%d: array access of kind %s", i, in.Kind)
			}
		case OpPrefetch, OpSpecLoad:
			if in.Addr.Index != NoReg && in.Addr.Scale == 0 {
				return fmt.Errorf("@%d: indexed address with zero scale", i)
			}
		}
	}
	// Fallthrough off the end of the method is invalid: the final
	// instruction must be a terminator.
	last := &m.Code[n-1]
	if last.Op != OpReturn && last.Op != OpGoto {
		return fmt.Errorf("method does not end in a terminator (ends with %s)", last.Op)
	}
	return nil
}
