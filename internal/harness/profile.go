package harness

import (
	"fmt"

	"strider/internal/static"
)

// ProfileFor returns the PGO profile for the spec's dynamic-equivalent
// cell from the engine's profile cache, building it with one dynamic
// profiling run on first use. Every PGO execution of the cell shares the
// profile (the cross-run profile reuse the execution server leans on),
// and concurrent callers for the same cell share a single profiling run.
func (e *Engine) ProfileFor(s Spec) (*static.Profile, error) {
	sd := e.canonical(s)
	sd.Predict = "dynamic"
	k := sd.key()
	p, _, err := e.profiles.Do(k, func() (*static.Profile, error) { return e.buildProfile(sd, k) })
	return p, err
}

// buildProfile executes the cell dynamically once — warmup plus measured
// run, the same shape as a normal execution, so every method crosses the
// compile threshold — with profile recording enabled.
func (e *Engine) buildProfile(sd Spec, cell string) (*static.Profile, error) {
	v, err := e.NewVM(sd, nil)
	if err != nil {
		return nil, err
	}
	p := static.NewProfile(cell)
	v.JITOpts.RecordProfile = p
	if _, err := v.Measure(nil, sd.Warmups); err != nil {
		return nil, fmt.Errorf("harness: pgo profiling %s/%s/%s: %w",
			sd.Workload, sd.Machine, sd.Mode, err)
	}
	return p, nil
}
