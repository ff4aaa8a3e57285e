package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"strider/internal/interp"
	"strider/internal/ir"
	"strider/internal/value"
	"strider/internal/vm"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer's package.
type span struct {
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
	parent int32 // index of the enclosing span in the same tracer, -1 for a root
	op     int64 // the op the span belongs to
}

// tracer keeps spans in memory; one goroutine owns each tracer, and the
// run merges them when it ends. A nil *tracer records nothing, so the
// untraced path is the traced path with every call a no-op.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch).Nanoseconds(), parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.epoch).Nanoseconds()
}

// record adds an already-measured span (a duration reported by the
// program, such as the server's own execution time).
func (t *tracer) record(name string, parent int32, op int64, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: op})
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// merge appends the spans of others, rebasing their parent indices.
func (t *tracer) merge(others ...*tracer) {
	for _, o := range others {
		base := int32(len(t.spans))
		for _, s := range o.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			t.spans = append(t.spans, s)
		}
	}
}

// layerTimes is the self time of each span name (a span's duration minus
// the part its child spans cover) and the number of spans of that name.
type layerTimes struct {
	selfNs map[string]int64
	count  map[string]int
}

func (t *tracer) layerTimes() layerTimes {
	lt := layerTimes{selfNs: map[string]int64{}, count: map[string]int{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		lt.selfNs[s.name] += s.end - s.start - child[i]
		lt.count[s.name]++
	}
	return lt
}

// msPerOp is the named layer's self time per op, in ms.
func (lt layerTimes) msPerOp(name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(lt.selfNs[name]) / 1e6 / float64(ops)
}

// write dumps every span once, at the end of the run, as gzipped CSV.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name,start_ns,end_ns,parent,op")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.op)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compileTimer wraps a VM as its engine's dispatcher and records a
// jit.compile span around every Invoke that JIT-compiles a method.
// Invocations of already compiled methods pass straight through untimed.
type compileTimer struct {
	v      *vm.VM
	tr     *tracer
	parent int32
	op     int64
}

func (d *compileTimer) Invoke(m *ir.Method, args []value.Value) *interp.Code {
	if d.v.CompiledFor(m) != nil {
		return d.v.Invoke(m, args)
	}
	start := d.tr.now()
	code := d.v.Invoke(m, args)
	if d.v.CompiledFor(m) != nil {
		d.tr.record("jit.compile", d.parent, d.op, start, d.tr.now())
	}
	return code
}
