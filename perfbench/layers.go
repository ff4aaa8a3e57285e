package main

import (
	"fmt"
	"io"
	"time"
)

// attribution is what the traced run measures outside the timed ops:
// replays of the workload's executions on the benchmark's own VMs, one
// per cell, each standing for one op (see replay).
type attribution struct {
	spans      *tracer
	runs       int
	instr      uint64
	allocBytes uint64
}

// traced is the per-layer run. Each set-up is followed by an untraced and
// a traced segment, in alternating order, so trace.overhead_frac compares
// like with like; the layers the ops cannot be split into from outside
// are then replayed, and every span is written out once at the end.
func (r *runState) traced(d time.Duration, spansPath string, log io.Writer) (result, error) {
	epoch := time.Now()
	var (
		untr, trc []segment
		svc       []serviceStats
	)
	half := d / time.Duration(2*segments)
	for k := 0; k < segments; k++ {
		e, _, err := r.setupTimed()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		for j := 0; j < 2; j++ {
			if (j+k)%2 == 0 {
				untr = append(untr, r.runSegment(e, half, false, false, epoch))
			} else {
				trc = append(trc, r.runSegment(e, half, true, false, epoch))
			}
		}
		st, err := e.close()
		if err != nil {
			return result{}, err
		}
		svc = append(svc, st)
	}
	var att attribution
	if r.w.replay {
		var err error
		if att, err = replay(r, epoch); err != nil {
			return result{}, fmt.Errorf("replay: %w", err)
		}
	}
	all := newTracer(epoch)
	for _, s := range trc {
		all.merge(s.spans)
	}
	if att.spans != nil {
		all.merge(att.spans)
	}
	if err := all.write(spansPath); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "%d spans written to %s\n", len(all.spans), spansPath)

	res := r.perLayer(untr, trc, svc, att)
	for _, s := range append(untr, trc...) {
		for _, cr := range s.clients {
			res.Attempted += len(cr.lats)
			res.Failed += len(cr.errs)
			for _, err := range cr.errs {
				fmt.Fprintln(log, "op failed:", err)
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// perLayer derives the per-layer metrics. Layer times are self times per
// op of the traced segments, plus (for serve-exec) the replays that
// stand for its ops; counts and ratios come from the ops' simulated
// statistics; server figures from the responses and /stats.
func (r *runState) perLayer(untr, trc []segment, svc []serviceStats, att attribution) result {
	untrRate, _ := r.rates(untr)
	trcRate, _ := r.rates(trc)

	ops := newTracer(time.Time{})
	var (
		n, nServed                         int
		instr, compInstr, cycles, gcCycles uint64
		gcs, l1, l2, dtlb                  uint64
		hwIssued, hwHits, hwTrains         uint64
		swIssued, swUseless, swDropped     uint64
		jitMethods, jitUnits, inspect      uint64
		prefetchSites                      uint64
		respBytes                          uint64
		wallNs                             int64
		overhead                           []float64
	)
	for _, s := range trc {
		ops.merge(s.spans)
		for _, o := range s.ops() {
			n++
			if o.respBytes > 0 {
				nServed++
				respBytes += uint64(o.respBytes)
				wallNs += o.wallNs
				overhead = append(overhead, float64(o.lat.Nanoseconds()-o.wallNs)/1e6)
			}
			st := o.stats
			if st == nil {
				continue
			}
			instr += st.Instructions
			compInstr += st.CompiledInstructions
			cycles += st.Cycles
			gcCycles += st.GCCycles
			gcs += st.GCs
			l1 += st.Mem.L1LoadMisses
			l2 += st.Mem.L2LoadMisses
			dtlb += st.Mem.DTLBLoadMisses
			hwIssued += st.HW.Issued
			hwHits += st.HW.Hits
			hwTrains += st.HW.Trains
			swIssued += st.Mem.PrefetchesIssued
			swUseless += st.Mem.PrefetchesUseless
			swDropped += st.Mem.PrefetchesDropped
			jitMethods += uint64(st.CompiledMethods)
			jitUnits += st.JITUnits
			inspect += uint64(st.InspectSteps)
			prefetchSites += uint64(st.Prefetch.Total())
		}
	}
	lt := ops.layerTimes()
	la := layerTimes{selfNs: map[string]int64{}, count: map[string]int{}}
	if att.spans != nil {
		la = att.spans.layerTimes()
	}
	// perOp is a layer's time per op: the ops' own spans, plus the
	// replays', each replay standing for one op.
	perOp := func(name string) float64 {
		return lt.msPerOp(name, n) + la.msPerOp(name, att.runs)
	}
	hostFrac := 0.0
	if m := la.selfNs["interp.measured"]; m > 0 {
		hostFrac = 1 - float64(la.selfNs["memsim.zero_run"])/float64(m)
	}
	keyUs := 0.0
	if c := lt.count["harness.key"]; c > 0 {
		keyUs = float64(lt.selfNs["harness.key"]) / 1e3 / float64(c)
	}
	var poolHits, poolMisses, poisoned, cacheHits, cacheAll, rejected uint64
	utilMin, utilMax := 0.0, 0.0
	first := true
	for _, st := range svc {
		poolHits += st.Pool.Hits
		poolMisses += st.Pool.Misses
		poisoned += st.Pool.Poisoned
		cacheHits += st.Cache.Hits
		cacheAll += st.Cache.Hits + st.Cache.Misses + st.Cache.DedupJoins
		rejected += st.Rejected.QueueFull + st.Rejected.Draining + st.Rejected.Invalid
		for _, sh := range st.Shards {
			if first || sh.Utilization < utilMin {
				utilMin = sh.Utilization
			}
			if first || sh.Utilization > utilMax {
				utilMax = sh.Utilization
			}
			first = false
		}
	}
	ovP50 := median(overhead)
	ovTail := quantile(overhead, r.w.tailPct/100)

	per := func(x uint64, d int) float64 {
		if d == 0 {
			return 0
		}
		return float64(x) / float64(d)
	}
	frac := func(x, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(x) / float64(d)
	}
	pki := func(x uint64) float64 { return 1000 * frac(x, instr) }
	m := map[string]metric{
		"workloads.build_ms": {perOp("workloads.build"), "ms"},
		"vm.new_ms":          {perOp("vm.new"), "ms"},
		"vm.reset_ms":        {perOp("vm.reset"), "ms"},
		"jit.compile_ms":     {perOp("jit.compile"), "ms"},
		"jit.methods":        {per(jitMethods, n), "count"},
		"jit.units":          {per(jitUnits, n), "count"},
		"jit.inspect_steps":  {per(inspect, n), "count"},
		"jit.prefetch_sites": {per(prefetchSites, n), "count"},

		"interp.warmup_ms":     {perOp("interp.warmup"), "ms"},
		"interp.measured_ms":   {perOp("interp.measured"), "ms"},
		"interp.ns_per_instr":  {per(uint64(la.selfNs["interp.measured"]), int(att.instr)), "ns"},
		"interp.compiled_frac": {frac(compInstr, instr), "frac"},

		"memsim.host_frac":               {hostFrac, "frac"},
		"memsim.l1_miss_pki":             {pki(l1), "1/kinstr"},
		"memsim.l2_miss_pki":             {pki(l2), "1/kinstr"},
		"memsim.dtlb_miss_pki":           {pki(dtlb), "1/kinstr"},
		"memsim.hw_issued_pki":           {pki(hwIssued), "1/kinstr"},
		"memsim.hw_hit_frac":             {frac(hwHits, hwTrains), "frac"},
		"memsim.sw_prefetch_useful_frac": {frac(swIssued-min(swIssued, swUseless+swDropped), swIssued), "frac"},

		"heap.gcs_per_op":      {per(gcs, n), "count"},
		"heap.gc_cycle_frac":   {frac(gcCycles, cycles), "frac"},
		"heap.alloc_kb_per_op": {per(att.allocBytes, att.runs) / 1024, "KB"},

		"harness.key_us": {keyUs, "us"},

		"server.exec_ms":          {per(uint64(wallNs), nServed) / 1e6, "ms"},
		"server.overhead_p50_ms":  {ovP50, "ms"},
		"server.overhead_tail_ms": {ovTail, "ms"},
		"server.resp_kb":          {per(respBytes, nServed) / 1024, "KB"},
		"server.pool_hit_frac":    {frac(poolHits, poolHits+poolMisses), "frac"},
		"server.pool_poisoned":    {float64(poisoned), "count"},
		"server.cache_hit_frac":   {frac(cacheHits, cacheAll), "frac"},
		"server.shard_util_min":   {utilMin, "frac"},
		"server.shard_util_max":   {utilMax, "frac"},
		"server.rejected":         {float64(rejected), "count"},

		"trace.overhead_frac": {1 - trcRate/untrRate, "frac"},
	}
	return result{Metrics: m}
}
