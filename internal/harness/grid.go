package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"strider/internal/telemetry"
	"strider/internal/vm"
)

// Result is the outcome of one grid cell.
type Result struct {
	Spec  Spec
	Stats vm.RunStats
	Err   error
	// Wall is the wall-clock time this cell took from the caller's point
	// of view (near zero for cache hits).
	Wall time.Duration
	// Shared is true when the cell was served from the result cache or
	// joined an execution already in flight instead of running its own VM.
	Shared bool
}

// Grid is a batch of experiment cells scheduled across a bounded worker
// pool. Cells are independent deterministic simulations, so any subset may
// run concurrently; duplicate specs (within the grid or across concurrent
// grids on one Engine) collapse onto one execution via the engine's
// singleflight result cache.
type Grid struct {
	Specs []Spec
	// Engine runs the cells: its defaults, caches, recorder and progress
	// writer apply. nil runs them on a fresh Engine with the built-in
	// defaults.
	Engine *Engine
	// Parallel is the worker count; 0 uses the engine's (Engine.Parallel,
	// itself defaulting to GOMAXPROCS).
	Parallel int
	// Progress, when non-nil, is called after each cell completes with the
	// number of completed cells so far. Calls are serialized.
	Progress func(done, total int, r Result)
}

// Parallelism returns the worker count of grids that do not set their
// own: Parallel, or GOMAXPROCS when Parallel is not positive.
func (e *Engine) Parallelism() int {
	if e.Parallel > 0 {
		return e.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// printProgress writes one complete progress line under the engine's
// printer lock.
func (e *Engine) printProgress(line string) {
	e.printMu.Lock()
	defer e.printMu.Unlock()
	io.WriteString(e.Progress, line)
}

// Run executes every cell and returns results in Specs order.
func (g Grid) Run() []Result {
	results := make([]Result, len(g.Specs))
	if len(g.Specs) == 0 {
		return results
	}
	e := g.Engine
	if e == nil {
		e = new(Engine)
	}
	workers := g.Parallel
	if workers <= 0 {
		workers = e.Parallelism()
	}
	if workers > len(g.Specs) {
		workers = len(g.Specs)
	}

	var (
		progressMu sync.Mutex
		done       int
	)
	w, rec := e.Progress, e.Recorder
	report := func(r Result) {
		if rec != nil {
			ev := telemetry.CellEvent{
				Cell:   r.Spec.withDefaults().String(),
				Wall:   r.Wall,
				Shared: r.Shared,
			}
			if r.Err != nil {
				ev.Err = r.Err.Error()
			}
			rec.Cell(ev)
		}
		if g.Progress == nil && w == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		if w != nil {
			note := ""
			if r.Shared {
				note = " (shared)"
			}
			if r.Err != nil {
				note = " ERROR: " + r.Err.Error()
			}
			line := fmt.Sprintf("[%*d/%d] %-40s %10s%s\n",
				len(fmt.Sprint(len(g.Specs))), done, len(g.Specs),
				r.Spec.withDefaults().String(), r.Wall.Round(time.Millisecond), note)
			e.printProgress(line)
		}
		if g.Progress != nil {
			g.Progress(done, len(g.Specs), r)
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				stats, fresh, err := e.run(g.Specs[i])
				results[i] = Result{
					Spec:   g.Specs[i],
					Stats:  stats,
					Err:    err,
					Wall:   time.Since(start),
					Shared: !fresh,
				}
				report(results[i])
			}
		}()
	}
	for i := range g.Specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// RunAll executes specs with the engine's worker pool and returns results
// in order; the error is the first cell error in spec order, if any.
func (e *Engine) RunAll(specs []Spec) ([]Result, error) {
	results := Grid{Specs: specs, Engine: e}.Run()
	for _, r := range results {
		if r.Err != nil {
			return results, r.Err
		}
	}
	return results, nil
}

// runBatch executes specs and returns just their stats in order, failing
// on the first cell error.
func (e *Engine) runBatch(specs []Spec) ([]vm.RunStats, error) {
	results, err := e.RunAll(specs)
	if err != nil {
		return nil, err
	}
	stats := make([]vm.RunStats, len(results))
	for i, r := range results {
		stats[i] = r.Stats
	}
	return stats, nil
}
