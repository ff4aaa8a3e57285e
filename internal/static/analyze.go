// Package static is the offline side of the paper's core comparison: it
// predicts stride patterns and co-allocation purely from IR/CFG/dataflow
// structure — no execution — emitting the same candidate vocabulary the
// prefetch code generator consumes. It models the pre-paper state of the
// art (OOPredictor-style static prediction of object-oriented access
// patterns): array walks get their stride from induction-variable steps,
// and reference chases get the classic allocation-order assumption that
// the next object of a class sits InstanceSize bytes after the current
// one. Where those assumptions fail — phased strides, data-dependent
// layouts, lists traversed against allocation order — is exactly what the
// experiments' prediction-source table measures.
//
// The package also holds the PGO profile store (profile.go): one run's
// dynamic inspection results, kept in memory so later compilations of
// the same cell replay the recorded annotations and skip re-inspection
// entirely.
package static

import (
	"strider/internal/cfg"
	"strider/internal/classfile"
	"strider/internal/core/ldg"
	"strider/internal/dataflow"
	"strider/internal/ir"
	"strider/internal/telemetry"
	"strider/internal/value"
)

// Source is the telemetry marker stamped on statically predicted events.
const Source = "static"

// Annotate writes statically predicted stride patterns onto a loop's load
// dependence graph, in the same node-then-edge order the dynamic
// annotator uses. Candidates without a structural prediction are reported
// to the recorder as FILTER_NO_PATTERN, marked with the static source.
// The return value is the modelled compile-time cost of the analysis in
// work units (the Figure 11 ledger's currency).
func Annotate(g *cfg.Graph, df *dataflow.Defs, lg *ldg.Graph, rec telemetry.Recorder) uint64 {
	m := lg.Method
	loop := lg.Loop
	qname := m.QName()
	var units uint64

	noPattern := func(instr, pair int, op ir.Op) {
		if rec == nil {
			return
		}
		rec.Decision(telemetry.DecisionEvent{
			Method: qname, Loop: loop.Header, Instr: instr, Pair: pair,
			Op: op.String(), Reason: telemetry.FilterNoPattern, Src: Source,
		})
	}

	for _, n := range lg.Nodes {
		units += 3
		d, ok := predictInter(m, g, df, loop, n)
		n.HasInter, n.Inter, n.RawInter = ok, 0, d
		n.InterRatio, n.InterSamples = 0, 0
		if ok {
			n.Inter = d
		} else {
			noPattern(n.Instr, -1, n.Op)
		}
	}
	for _, n := range lg.Nodes {
		for _, e := range n.Succs {
			units += 2
			s, ok := predictIntra(m, df, e)
			e.HasIntra, e.Intra, e.RawIntra = ok, 0, s
			e.IntraRatio, e.IntraSamples = 0, 0
			if ok {
				e.Intra = s
			} else {
				noPattern(e.From.Instr, e.To.Instr, e.To.Op)
			}
		}
	}
	return units
}

// predictInter predicts a load's inter-iteration stride from structure
// alone:
//
//   - an array load whose index is an induction variable advances by
//     step * element size each iteration;
//   - a getfield whose base reference is produced by an in-loop load (a
//     reference chase) is assumed to walk objects laid out in allocation
//     order, i.e. to advance by the declaring class's instance size;
//   - everything else (invariant bases, array lengths, statics) has no
//     predictable inter-iteration stride.
func predictInter(m *ir.Method, g *cfg.Graph, df *dataflow.Defs, loop *cfg.Loop, n *ldg.Node) (int64, bool) {
	in := &m.Code[n.Instr]
	switch in.Op {
	case ir.OpArrayLoad:
		step, ok := inductionStep(m, g, df, loop, n.Instr, in.B, 0)
		if !ok || step == 0 {
			return 0, false
		}
		elem := int64(4)
		if in.Kind.Size() == 8 {
			elem = 8
		}
		return step * elem, true
	case ir.OpGetField:
		if !loopVariantRef(m, g, df, loop, n.Instr, in.A, 0) {
			return 0, false
		}
		cls := in.Field.Class
		if cls == nil || cls.InstanceSize == 0 {
			return 0, false
		}
		// The allocation-order assumption: consecutive objects of the
		// class are InstanceSize bytes apart. Lists built in reverse, GC
		// reordering, and interleaved allocation all break it — dynamically
		// measurable, statically invisible.
		return int64(cls.InstanceSize), true
	}
	return 0, false
}

// predictIntra predicts the within-iteration stride of a dependent load
// pair. Two structural shapes are recognized, both rooted at a getfield
// parent (array elements and statics give no usable base address):
//
//   - recurrent chase (the value flows to the dependent load through
//     register copies across the back edge, `cur = cur.next`): both loads
//     read the same object, so the stride is the field-offset difference;
//   - same-iteration dereference (the dependent load consumes the value
//     directly): the child object is assumed co-allocated right after its
//     parent, so the stride is the parent's remaining size plus the
//     dependent load's displacement.
func predictIntra(m *ir.Method, df *dataflow.Defs, e *ldg.Edge) (int64, bool) {
	from := &m.Code[e.From.Instr]
	if from.Op != ir.OpGetField {
		return 0, false
	}
	offFrom := int64(from.Field.Offset)
	to := &m.Code[e.To.Instr]
	var offTo int64
	switch to.Op {
	case ir.OpGetField:
		offTo = int64(to.Field.Offset)
	case ir.OpArrayLen:
		offTo = int64(classfile.AuxOffset)
	case ir.OpArrayLoad:
		offTo = int64(classfile.HeaderBytes)
	default:
		return 0, false
	}

	direct := false
	for _, d := range df.ReachingDefs(e.To.Instr, to.A) {
		if d == e.From.Instr {
			direct = true
			break
		}
	}
	var s int64
	if direct {
		cls := from.Field.Class
		if cls == nil || cls.InstanceSize == 0 {
			return 0, false
		}
		s = int64(cls.InstanceSize) - offFrom + offTo
	} else {
		s = offTo - offFrom
	}
	if s == 0 {
		// Mirrors the dynamic zero-stride rejection: the pair shares a
		// cache line by construction, so the parent's prefetch covers it.
		return 0, false
	}
	return s, true
}

// inductionStep resolves the per-iteration step of a register at a use
// site: every in-loop reaching definition must be a copy chain ending in
// an add/subtract of a compile-time constant, and all paths must agree on
// the step. No in-loop definition means the register is loop-invariant
// (step unknown/zero); disagreeing paths — a phased stride — defeat the
// analysis, exactly as they defeat real static stride predictors.
func inductionStep(m *ir.Method, g *cfg.Graph, df *dataflow.Defs, loop *cfg.Loop, use int, reg ir.Reg, depth int) (int64, bool) {
	if depth > 4 {
		return 0, false
	}
	var step int64
	found := false
	for _, d := range df.ReachingDefs(use, reg) {
		if !loop.ContainsInstr(g, d) {
			continue
		}
		in := &m.Code[d]
		var s int64
		switch in.Op {
		case ir.OpMove:
			ms, ok := inductionStep(m, g, df, loop, d, in.A, depth+1)
			if !ok {
				return 0, false
			}
			s = ms
		case ir.OpAdd, ir.OpSub:
			c, ok := constOperand(m, df, d, in)
			if !ok {
				return 0, false
			}
			s = c
		default:
			return 0, false
		}
		if found && s != step {
			return 0, false
		}
		step, found = s, true
	}
	return step, found
}

// constOperand resolves the constant operand of an add/subtract, looking
// through the (unique) reaching definition of each source register.
func constOperand(m *ir.Method, df *dataflow.Defs, at int, in *ir.Instr) (int64, bool) {
	if c, ok := constOf(m, df, at, in.B); ok {
		if in.Op == ir.OpSub {
			return -c, true
		}
		return c, true
	}
	if in.Op == ir.OpAdd {
		if c, ok := constOf(m, df, at, in.A); ok {
			return c, true
		}
	}
	return 0, false
}

func constOf(m *ir.Method, df *dataflow.Defs, at int, reg ir.Reg) (int64, bool) {
	d := df.UniqueReachingDef(at, reg)
	if d < 0 || m.Code[d].Op != ir.OpConst {
		return 0, false
	}
	return m.Code[d].Imm, true
}

// loopVariantRef reports whether a reference register is redefined inside
// the loop by a ref-producing load (possibly through register copies) —
// the structural signature of a reference chase or an object-per-iteration
// walk, as opposed to repeated loads off a loop-invariant base.
func loopVariantRef(m *ir.Method, g *cfg.Graph, df *dataflow.Defs, loop *cfg.Loop, use int, reg ir.Reg, depth int) bool {
	if depth > 4 {
		return false
	}
	for _, d := range df.ReachingDefs(use, reg) {
		if !loop.ContainsInstr(g, d) {
			continue
		}
		in := &m.Code[d]
		switch in.Op {
		case ir.OpMove:
			if loopVariantRef(m, g, df, loop, d, in.A, depth+1) {
				return true
			}
		case ir.OpGetField, ir.OpGetStatic:
			if in.Field.Kind == value.KindRef {
				return true
			}
		case ir.OpArrayLoad:
			if in.Kind == value.KindRef {
				return true
			}
		}
	}
	return false
}
