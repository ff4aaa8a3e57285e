// Trap-path differential tests: every fault the reference interpreter can
// raise must surface from the threaded micro-ops with the same cause, the
// same pc, and the same accounting, in both tiers — including faults
// reached mid-way through a fused run and ops the builder never emits
// (pre-decoded trap shapes).
package interp

import (
	"errors"
	"strings"
	"testing"

	"strider/internal/classfile"
	"strider/internal/ir"
	"strider/internal/value"
)

// trapProg builds one program per faulting shape: a register holding a
// non-ref (or null) flows into each heap-addressed op.
func trapProg(fault string) func() *ir.Program {
	return func() *ir.Program {
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
	// Every fault shape runs under both memory lanes and in both tiers:
	// traps interleave with memory accesses (a putfield trap follows the
	// object's header loads), so attribution must not depend on which lane
	// served them or which tier's accounting ran.
	run := func(t *testing.T, slow bool) {
		for _, fault := range faults {
			t.Run(fault, func(t *testing.T) {
				for _, tier := range tiers {
					_, err := runBothLane(t, trapProg(fault), nil, slow, tier.compiled)
					if err == nil {
						t.Fatalf("%s did not trap %s", fault, tier.name)
					}
				}
			})
		}
	}
	t.Run("fastlane", func(t *testing.T) { run(t, false) })
	t.Run("slowlane", func(t *testing.T) { run(t, true) })
}

func TestBoundsMessageCarriesIndexAndLength(t *testing.T) {
	_, err := runBoth(t, trapProg("arrayload-oob"), nil)
	if !errors.Is(err, ErrBounds) {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
	if !strings.Contains(err.Error(), "4 of 4") {
		t.Errorf("bounds message %q does not carry index and length", err)
	}
}

// TestBudgetTrapSweep runs a loop under every instruction budget from 1 to
// just past the loop's full retirement. Each budget lands the trap on a
// different micro-op — loop-top checks, fused-head overshoots into
// fusedSlow, mid-call boundaries — and the reference and the threaded
// micro-ops must agree on the pc, the cause, and the retired counts at
// every single one, in both tiers.
func TestBudgetTrapSweep(t *testing.T) {
	build := func() *ir.Program {
		u := classfile.NewUniverse()
		cls := u.MustDefineClass("B", nil,
			classfile.FieldSpec{Name: "x", Kind: value.KindInt},
		)
		fX := cls.FieldByName("x")
		p := ir.NewProgram(u)
		var bump *ir.Method
		{
			b := ir.NewBuilder(p, nil, "bump", value.KindInt, value.KindRef)
			obj := b.Param(0)
			v := b.GetField(obj, fX)
			one := b.ConstInt(1)
			nv := b.AddInt(v, one)
			b.PutField(obj, fX, nv)
			b.Return(nv)
			bump = b.Finish()
		}
		{
			b := ir.NewBuilder(p, nil, "main", value.KindInt)
			obj := b.New(cls)
			zero := b.ConstInt(0)
			b.PutField(obj, fX, zero)
			n := b.ConstInt(6)
			i := b.ConstInt(0)
			acc := b.ConstInt(0)
			t1 := b.ConstInt(3)
			cond := b.NewLabel()
			body := b.NewLabel()
			b.Goto(cond)
			b.Bind(body)
			// A fused run inside the loop body...
			s1 := b.AddInt(acc, t1)
			s2 := b.Arith(ir.OpMul, value.KindInt, s1, t1)
			s3 := b.Arith(ir.OpSub, value.KindInt, s2, acc)
			b.MoveTo(acc, s3)
			// ...then a call, so budgets land across frame boundaries too.
			r := b.Call(bump, obj)
			b.ArithTo(acc, ir.OpAdd, value.KindInt, acc, r)
			b.IncInt(i, 1)
			b.Bind(cond)
			b.Br(value.KindInt, ir.CondLT, i, n, body)
			b.Return(acc)
			p.Entry = b.Finish()
		}
		return p
	}

	// Full retirement without a budget first, to size the sweep.
	pFull := build()
	eFull := newEngine(pFull, refDisp{true})
	if _, err := eFull.Run(pFull.Entry, nil); err != nil {
		t.Fatal(err)
	}
	full := eFull.S.Instructions

	// The sweep runs once per memory lane: the default fast lane (the
	// engines pin *memsim.Memory and take the inline L1 hit probes) and,
	// with the simulator hidden behind the interface (newLaneEngine), the
	// pure MemModel interface path. Within each lane and tier the
	// reference and the threaded micro-ops must agree at every budget, and
	// the per-budget stats recorded by the two lanes' sweeps must match —
	// lane choice is a wiring-time optimisation and must never be
	// observable, least of all mid-trap.
	sweep := func(t *testing.T, slow, compiled bool) []Stats {
		stats := make([]Stats, 0, full+1)
		for budget := uint64(1); budget <= full+1; budget++ {
			pi := build()
			ei := newLaneEngine(pi, refDisp{compiled}, slow)
			ei.MaxInstructions = budget
			ri, erri := ei.Run(pi.Entry, nil)

			pc := build()
			ec := newLaneEngine(pc, newThreadedDisp(pc, nil, compiled), slow)
			ec.MaxInstructions = budget
			rc, errc := ec.Run(pc.Entry, nil)

			if got := ec.FastMem() != nil; got == slow {
				t.Fatalf("budget %d: fast lane pinned = %v with slow = %v", budget, got, slow)
			}
			if ri != rc {
				t.Errorf("budget %d: result diverged: %v vs %v", budget, ri, rc)
			}
			diffErr(t, erri, errc)
			diffStats(t, ei.S, ec.S)
			if budget < full && !errors.Is(errc, ErrBudget) {
				t.Errorf("budget %d: err = %v, want ErrBudget", budget, errc)
			}
			if t.Failed() {
				t.Fatalf("diverged at budget %d of %d", budget, full)
			}
			stats = append(stats, ec.S)
		}
		return stats
	}
	// fast[i] and slow[i] hold tier i's sweep on each lane.
	fast := make([][]Stats, len(tiers))
	slow := make([][]Stats, len(tiers))
	lane := func(out [][]Stats, slow bool) func(*testing.T) {
		return func(t *testing.T) {
			for i, tier := range tiers {
				t.Run(tier.name, func(t *testing.T) { out[i] = sweep(t, slow, tier.compiled) })
			}
		}
	}
	t.Run("fastlane", lane(fast, false))
	t.Run("slowlane", lane(slow, true))
	if t.Failed() {
		return
	}
	for i, tier := range tiers {
		for b := range fast[i] {
			if fast[i][b] != slow[i][b] {
				t.Errorf("%s, budget %d: stats diverged across lanes:\n fast %+v\n slow %+v",
					tier.name, b+1, fast[i][b], slow[i][b])
			}
		}
	}
}

// patchedProg reserves a placeholder instruction (a Sink) and overwrites
// it with a raw shape the builder never emits, exercising the pre-decoded
// trap ops and the JIT-spliced prefetch forms.
func patchedProg(patch func(m *ir.Method, at int, scratch []ir.Reg)) func() *ir.Program {
	return func() *ir.Program {
		u := classfile.NewUniverse()
		cls := u.MustDefineClass("P", nil,
			classfile.FieldSpec{Name: "x", Kind: value.KindInt},
		)
		fX := cls.FieldByName("x")
		p := ir.NewProgram(u)
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		obj := b.New(cls)
		val := b.ConstInt(9)
		b.PutField(obj, fX, val)
		idx := b.ConstInt(1)
		spare := b.NewReg()
		b.Sink(val) // placeholder, overwritten by patch (index 4)
		got := b.GetField(obj, fX)
		b.Return(got)
		m := b.Finish()
		p.Entry = m
		patch(m, 4, []ir.Reg{obj, val, idx, spare})
		return p
	}
}

func TestPatchedOpEdges(t *testing.T) {
	cases := map[string]struct {
		patch   func(m *ir.Method, at int, s []ir.Reg)
		wantErr string // substring of the trap cause; empty = must succeed
	}{
		"unknown-op": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.Op(250)}
			},
			wantErr: "unimplemented op",
		},
		"unknown-int-cond": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpBr, Kind: value.KindInt,
					Cond: ir.Cond(250), A: s[1], B: s[1], Target: at + 1}
			},
			wantErr: "", // interp faults lazily; see below
		},
		"bad-kind-cond": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpBr, Kind: value.KindSpecRef,
					Cond: ir.CondEQ, A: s[0], B: s[0], Target: at + 1}
			},
			wantErr: ir.ErrBadOperand.Error(),
		},
		"ref-cond-lt": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpBr, Kind: value.KindRef,
					Cond: ir.CondLT, A: s[0], B: s[0], Target: at + 1}
			},
		},
		"prefetch-live": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpPrefetch,
					Addr: ir.AddrExpr{Base: s[0], Index: ir.NoReg}, Guarded: true}
			},
		},
		"prefetch-dead-base": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpPrefetch,
					Addr: ir.AddrExpr{Base: s[1], Index: ir.NoReg}}
			},
		},
		"specload-live": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpSpecLoad, Dst: s[3],
					Addr: ir.AddrExpr{Base: s[0], Index: s[2], Scale: 4}}
			},
		},
		"specload-dead-base": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpSpecLoad, Dst: s[3],
					Addr: ir.AddrExpr{Base: s[1], Index: ir.NoReg}}
			},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			for _, tier := range tiers {
				t.Run(tier.name, func(t *testing.T) {
					_, err := runBothLane(t, patchedProg(tc.patch), nil, false, tier.compiled)
					if tc.wantErr == "" && name != "unknown-int-cond" {
						if err != nil {
							t.Fatalf("unexpected trap: %v", err)
						}
						return
					}
					if name == "unknown-int-cond" || name == "ref-cond-lt" {
						// Both shapes must trap identically (parity already
						// checked by runBothLane); the exact cause is EvalCond's.
						if err == nil {
							t.Fatal("bad condition did not trap")
						}
						return
					}
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
					}
					// An unknown op is a malformed operand shape, which the
					// oracle classifies as bad-operand (its TrapClass is
					// checked in internal/oracle, which imports this
					// package).
					if name == "unknown-op" && !errors.Is(err, ir.ErrBadOperand) {
						t.Fatalf("err = %v, want it to wrap %v", err, ir.ErrBadOperand)
					}
				})
			}
		})
	}
}
