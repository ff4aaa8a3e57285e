package main

import (
	"encoding/json"
	"fmt"
	"time"

	"strider/internal/arch"
	"strider/internal/harness"
	"strider/internal/telemetry"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// checkRun checks a locally executed run like a served one.
func (r *runState) checkRun(c cell, st vm.RunStats, err error) (*vm.RunStats, error) {
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c, err)
	}
	js, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("%s: encoding stats: %w", c, err)
	}
	return r.check(c, st.Checksum, js)
}

// buildVM builds the cell's fresh VM the way harness.NewVM does for a
// default spec, with spans around the program build and vm.New.
func buildVM(c cell, s harness.Spec, tr *tracer, parent int32, id int64) (*vm.VM, error) {
	w, err := workloads.ByName(s.Workload)
	if err != nil {
		return nil, err
	}
	m := arch.ByName(s.Machine)
	if m == nil {
		return nil, fmt.Errorf("%s: unknown machine", c)
	}
	sp := tr.begin("workloads.build", parent, id)
	prog := w.Build(s.Size)
	err = prog.Validate()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c, err)
	}
	sp = tr.begin("vm.new", parent, id)
	v := vm.New(prog, vm.Config{Machine: m, Mode: s.Mode, HeapBytes: s.HeapBytes})
	tr.end(sp)
	return v, nil
}

// replay stands in for the layers a served op passes through where the
// benchmark cannot put a span: inside the service. For each cell it
// first makes, with spans, the cold execution the service makes when its
// VM pool has none for the cell (vm.Measure's steps: program build,
// vm.New, the warm-up run with a jit.compile span around every Invoke
// that compiles, reset, measured run). It then replays the measured run
// the way a pooled VM serves it (vm.reset, interp.measured), and once
// more over a zero-latency memory model (memsim.zero_run).
func replay(r *runState, epoch time.Time) (attribution, error) {
	a := attribution{spans: newTracer(epoch)}
	for _, c := range r.w.cells {
		s := c.spec()
		id := int64(-1 - a.runs)
		v, err := buildVM(c, s, a.spans, -1, id)
		if err != nil {
			return a, err
		}
		timer := &compileTimer{v: v, tr: a.spans, op: id}
		v.Engine.Disp = timer
		sp := a.spans.begin("interp.warmup", -1, id)
		timer.parent = sp
		_, err = v.Run(nil)
		a.spans.end(sp)
		v.Engine.Disp = v
		if err != nil {
			return a, fmt.Errorf("%s: %w", c, err)
		}
		v.ResetRun()
		st, err := v.Run(nil)
		if _, err := r.checkRun(c, st, err); err != nil {
			return a, err
		}

		sp = a.spans.begin("vm.reset", -1, id)
		v.ResetRun()
		a.spans.end(sp)
		sp = a.spans.begin("interp.measured", -1, id)
		st, err = v.Run(nil)
		a.spans.end(sp)
		if _, err := r.checkRun(c, st, err); err != nil {
			return a, err
		}
		a.instr += st.Instructions
		a.allocBytes += v.Engine.S.AllocBytes

		v.ResetRun()
		v.Engine.SetMem(zeroMem{})
		sp = a.spans.begin("memsim.zero_run", -1, id)
		_, err = v.Run(nil)
		a.spans.end(sp)
		v.Engine.SetMem(v.Mem)
		if err != nil {
			return a, fmt.Errorf("%s on zero-latency memory: %w", c, err)
		}
		a.runs++
	}
	return a, nil
}

// zeroMem is a memory model where every access completes at once and
// every prefetch reports a fill, like the flat model internal/bench's
// exec pair runs over. Architectural behaviour is unchanged.
type zeroMem struct{}

func (zeroMem) LoadAt(addr, size uint32, now uint64, pc uint64) uint64 { return 0 }
func (zeroMem) Store(addr, size uint32, now uint64) uint64             { return 0 }
func (zeroMem) Prefetch(addr uint32, guarded bool, now uint64) telemetry.PrefetchOutcome {
	return telemetry.PrefetchFetched
}
