package bench

import (
	"fmt"
	"net"
	"net/http"

	"strider/internal/arch"
	"strider/internal/cfg"
	"strider/internal/core/jit"
	"strider/internal/core/ldg"
	"strider/internal/dataflow"
	"strider/internal/harness"
	"strider/internal/memsim"
	"strider/internal/oracle"
	"strider/internal/server"
	"strider/internal/static"
	"strider/internal/telemetry"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// Suite returns the pinned benchmark suite. The entries are fixed: CI and
// the committed BENCH_<n>.json trajectory compare runs by name, so renaming
// or removing an entry is itself flagged as a regression by Diff. All
// entries use the small problem size — the point is a stable, fast signal
// on the hot path, not a re-run of the paper's evaluation.
func Suite() []Entry {
	return []Entry{
		// The full stack end to end: program build, JIT with object
		// inspection, memory simulation — the exact loop every grid cell,
		// oracle replay, and fuzz iteration pays.
		vmEntry("vm/jess-small", "jess"),
		vmEntry("vm/db-small", "db"),

		// The differential suite's reference side: the prefetch-blind naive
		// interpreter, fingerprint included.
		{Name: "oracle/jess-small", Make: func() (func() (Work, error), error) {
			w, err := workloads.ByName("jess")
			if err != nil {
				return nil, err
			}
			return func() (Work, error) {
				// Rebuilt each iteration: the oracle runs over the program's
				// own universe, so statics carry state between runs.
				prog := w.Build(workloads.SizeSmall)
				fp, err := oracle.Run(prog, nil, oracle.Config{HeapBytes: w.HeapBytes})
				if err != nil {
					return Work{}, err
				}
				if fp.Trap != oracle.TrapNone {
					return Work{}, fmt.Errorf("oracle trapped: %s", fp.Trap)
				}
				return Work{Instructions: fp.Loads, Checksum: fp.Checksum}, nil
			}, nil
		}},

		// Steady-state engine speed: one VM reused across iterations
		// (ResetRun between runs), so this isolates the execution +
		// memory-model loop from build and JIT costs. After the first
		// (warmup) iteration every method is JIT-compiled, so the loop is
		// the threaded tier's; the name is kept so the entry's history
		// continues. It performs zero heap allocations.
		{Name: "interp/search-small-steady", Make: func() (func() (Work, error), error) {
			w, err := workloads.ByName("search")
			if err != nil {
				return nil, err
			}
			prog := w.Build(workloads.SizeSmall)
			v := vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: jit.Baseline, HeapBytes: w.HeapBytes})
			// One untimed run so the JIT reaches steady state: the first
			// run compiles methods as they cross the invocation threshold
			// and so retires different (interpreted) cycle counts.
			if _, err := v.Run(nil); err != nil {
				return nil, err
			}
			return func() (Work, error) {
				v.ResetRun()
				s, err := v.Run(nil)
				if err != nil {
					return Work{}, err
				}
				return Work{Cycles: s.Cycles, Instructions: s.Instructions, Checksum: s.Checksum}, nil
			}, nil
		}},

		// The execution tier isolated: a steady-state jess run on the
		// threaded-code tier (internal/compile) that runs every
		// JIT-compiled method, with the memory hierarchy replaced by a
		// zero-latency model so host time measures instruction execution
		// rather than cache simulation. The name is kept so the entry's
		// history continues.
		execEntry("exec/jess-small-compiled"),

		// The cache/TLB model alone: a strided load/store sweep with a
		// pointer-chase-like reuse pattern, no interpreter in the loop.
		// Deliberately pc-less (mem.Load): the default machine's hw model
		// is the pc-blind stream detector, which this entry is pinning;
		// the pc-indexed trainers get their own sites in hwEntry below.
		// Threading a site pc here would change the committed Work
		// signature for no extra coverage.
		{Name: "memsim/stride-sweep", Make: func() (func() (Work, error), error) {
			machine := arch.Pentium4()
			return func() (Work, error) {
				mem := memsim.New(machine)
				var now, sum uint64
				const n = 200_000
				addr := uint32(64)
				for i := 0; i < n; i++ {
					now += mem.Load(addr, 4, now)
					if i%4 == 0 {
						now += mem.Store(addr+16, 4, now)
					}
					if i%8 == 0 {
						mem.Prefetch(addr+512, i%16 == 0, now)
					}
					addr += 72 // object-sized stride, crosses lines and pages
					if addr >= 1<<24 {
						addr = 64
					}
				}
				sum = mem.C.LoadStallCycles + mem.C.StoreStallCycles
				return Work{Cycles: now, Instructions: mem.C.Loads + mem.C.Stores, Checksum: sum}, nil
			}, nil
		}},

		// The tentpole's inline hit lane in isolation: the same hierarchy
		// as stride-sweep, driven the way a specialized engine drives it —
		// LoadHit/StoreHit probe first, full LoadAt/Store only on a bail —
		// over a dense walk (sixteen 4-byte touches per 64-byte line) so
		// the probes' completed path dominates. One Memory is reused across
		// iterations (Reset, like an engine between runs), so after warmup
		// the loop allocates nothing — the alloc gate pins the lane itself
		// at zero. The checksum folds probe hits ^ probe bails ^ prefetch
		// arrivals, so the lane/fallback split and the prefetch machinery's
		// visibility are pinned by the diff gate, not just the speed.
		{Name: "memsim/hitlane", Make: func() (func() (Work, error), error) {
			mem := memsim.New(arch.Pentium4())
			return func() (Work, error) {
				mem.Reset()
				var now, hits, bails, arrivals uint64
				const n = 200_000
				addr := uint32(64)
				for i := 0; i < n; i++ {
					if stall, ok := mem.LoadHit(addr, now); ok {
						now, hits = now+stall, hits+1
					} else {
						now += mem.LoadAt(addr, 4, now, 7)
						bails++
					}
					if i%2 == 0 {
						if stall, ok := mem.StoreHit(addr+8, now); ok {
							now, hits = now+stall, hits+1
						} else {
							now += mem.Store(addr+8, 4, now)
							bails++
						}
					}
					if i%64 == 0 {
						if mem.Prefetch(addr+1024, false, now) == telemetry.PrefetchFetched {
							arrivals++
						}
					}
					addr += 4
					if addr >= 1<<22 {
						addr = 64
					}
				}
				return Work{Cycles: now, Instructions: mem.C.Loads + mem.C.Stores,
					Checksum: hits ^ bails ^ arrivals}, nil
			}, nil
		}},

		// The pc-indexed hardware-prefetcher trainers on the same sweep:
		// every L1 miss trains the model, so trainer overhead lands directly
		// on the simulation hot path. Checksum pins the model's issue count,
		// so a behaviour change fails before the diff gate is reached.
		hwEntry("memsim/ipstride-train", "ipstride"),
		hwEntry("memsim/multistride-train", "multistride"),

		// The experiment engine: one three-mode grid (BASELINE, INTER,
		// INTER+INTRA) scheduled through the harness worker pool. Each
		// iteration runs on a fresh Engine, whose cache is empty, so every
		// cell really executes; Work folds all three cells' cycles.
		{Name: "grid/compress-small-3modes", Make: func() (func() (Work, error), error) {
			specs := []harness.Spec{
				{Workload: "compress", Size: workloads.SizeSmall, Mode: jit.Baseline},
				{Workload: "compress", Size: workloads.SizeSmall, Mode: jit.Inter},
				{Workload: "compress", Size: workloads.SizeSmall, Mode: jit.InterIntra},
			}
			return func() (Work, error) {
				results, err := new(harness.Engine).RunAll(specs)
				if err != nil {
					return Work{}, err
				}
				var w Work
				for _, r := range results {
					w.Cycles += r.Stats.Cycles
					w.Instructions += r.Stats.Instructions
					w.Checksum ^= r.Stats.Checksum
				}
				return w, nil
			}, nil
		}},

		// The execution service end to end: an in-process striderd (real TCP
		// listener, real HTTP client) driven by the load-generator engine.
		// A fixed request count over a fixed cell rotation makes the Work
		// signature deterministic — the checksum is an order-independent
		// sum-fold of every response's result checksum, so a single wrong
		// byte anywhere on the serving path (cache, singleflight, VM pool)
		// fails the run before the diff gate is reached.
		{Name: "server/throughput", Make: func() (func() (Work, error), error) {
			srv := server.New(server.Config{Shards: 4})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			go http.Serve(ln, srv)
			jobs := []server.Job{
				{Workload: "jess"},
				{Workload: "db", Mode: "baseline"},
				{Workload: "search", Mode: "inter"},
				{Workload: "fuzz:0x3"},
			}
			url := "http://" + ln.Addr().String()
			return func() (Work, error) {
				st, err := server.RunLoad(server.LoadOptions{
					URL: url, Jobs: jobs, Concurrency: 8, Requests: 512,
				})
				if err != nil {
					return Work{}, err
				}
				if st.Errors > 0 || st.Traps > 0 || st.Backpressure > 0 {
					return Work{}, fmt.Errorf("bench: load run degraded: %+v", st)
				}
				return Work{Instructions: st.Requests, Checksum: st.Checksum}, nil
			}, nil
		}},

		// The offline analyzer alone: the CFG/dataflow/LDG pipeline plus
		// static.Annotate over every loop of every jess method, no
		// execution. This is the compile-time cost a static-prediction
		// cell pays instead of inspection; the checksum folds every
		// predicted stride and co-allocation offset, so a prediction
		// change fails the diff gate even when the runtime is flat.
		{Name: "jit/static-analyze", Make: func() (func() (Work, error), error) {
			w, err := workloads.ByName("jess")
			if err != nil {
				return nil, err
			}
			prog := w.Build(workloads.SizeSmall)
			return func() (Work, error) {
				var work Work
				for _, m := range prog.Methods() {
					g := cfg.Build(m)
					f := cfg.BuildLoops(g)
					if len(f.Loops) == 0 {
						continue
					}
					df := dataflow.Reach(g)
					for _, loop := range f.Loops {
						lg := ldg.Build(m, g, df, loop, nil)
						if len(lg.Nodes) == 0 {
							continue
						}
						work.Cycles += static.Annotate(g, df, lg, nil)
						for _, n := range lg.Nodes {
							work.Instructions++
							if n.HasInter {
								work.Checksum = work.Checksum*1099511628211 + uint64(n.Inter)
							}
							for _, e := range n.Succs {
								if e.HasIntra {
									work.Checksum = work.Checksum*1099511628211 + uint64(e.Intra)
								}
							}
						}
					}
				}
				return work, nil
			}, nil
		}},

		// Per-workload cells under the paper's full algorithm — the list
		// mixes pointer-chasing, array-striding, and allocation-heavy
		// behaviour so a regression in any hot-path layer moves at least one.
		cellEntry("cell/mtrt-small-interintra", "mtrt", "Pentium4"),
		cellEntry("cell/euler-small-interintra", "euler", "AthlonMP"),
	}
}

// hwEntry builds a memory-model entry with the named hardware-prefetcher
// model: a deterministic multi-site load sweep (two strided walks and a
// compound +1/+3-line pattern) that keeps the trainer busy on every miss.
func hwEntry(name, model string) Entry {
	return Entry{Name: name, Make: func() (func() (Work, error), error) {
		m := *arch.Pentium4()
		m.HWPrefetcher = model
		return func() (Work, error) {
			mem := memsim.New(&m)
			var now uint64
			const n = 200_000
			for i := 0; i < n; i++ {
				step := uint32(i % 50_000)
				switch i % 4 {
				case 0: // dense ascending walk
					now += mem.LoadAt(64*step, 4, now, 1)
				case 1: // two-line stride
					now += mem.LoadAt(1<<26+256*step, 4, now, 2)
				case 2: // compound stride: lines +1, +3 alternating
					now += mem.LoadAt(1<<27+128*(step+2*(step/2)), 4, now, 3)
				case 3: // no stable site (the pc==0 fast path)
					now += mem.LoadAt(1<<28+8192*step, 4, now, 0)
				}
			}
			hw := mem.HWStats()
			return Work{Cycles: now, Instructions: mem.C.Loads, Checksum: hw.Issued ^ hw.Trains<<32}, nil
		}, nil
	}}
}

// flatMem is the zero-latency memory model the exec/* entry runs over:
// loads and stores complete instantly and prefetches report a fill. It
// keeps the architectural semantics (same values, same control flow,
// same retirement counts) while taking the cache simulation out of the
// timed loop.
type flatMem struct{}

func (flatMem) LoadAt(addr, size uint32, now uint64, pc uint64) uint64 { return 0 }
func (flatMem) Store(addr, size uint32, now uint64) uint64             { return 0 }
func (flatMem) Prefetch(addr uint32, guarded bool, now uint64) telemetry.PrefetchOutcome {
	return telemetry.PrefetchFetched
}

// execEntry builds the execution-tier entry: a steady-state jess run (one
// VM, JIT warmed, ResetRun between iterations) over the zero-latency
// memory model.
func execEntry(name string) Entry {
	return Entry{Name: name, Make: func() (func() (Work, error), error) {
		w, err := workloads.ByName("jess")
		if err != nil {
			return nil, err
		}
		prog := w.Build(workloads.SizeSmall)
		v := vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: jit.InterIntra, HeapBytes: w.HeapBytes})
		// SetMem, not a field write: it unpins the engine's devirtualized
		// fast lane along with the model, so every access really dispatches
		// through flatMem.
		v.Engine.SetMem(flatMem{})
		// One untimed run so the JIT reaches steady state.
		if _, err := v.Run(nil); err != nil {
			return nil, err
		}
		return func() (Work, error) {
			v.ResetRun()
			s, err := v.Run(nil)
			if err != nil {
				return Work{}, err
			}
			return Work{Cycles: s.Cycles, Instructions: s.Instructions, Checksum: s.Checksum}, nil
		}, nil
	}}
}

// vmEntry builds a full-stack entry: fresh program, fresh VM, one run.
func vmEntry(name, workload string) Entry {
	return Entry{Name: name, Make: func() (func() (Work, error), error) {
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, err
		}
		return func() (Work, error) {
			prog := w.Build(workloads.SizeSmall)
			v := vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: jit.InterIntra, HeapBytes: w.HeapBytes})
			s, err := v.Run(nil)
			if err != nil {
				return Work{}, err
			}
			return Work{Cycles: s.Cycles, Instructions: s.Instructions, Checksum: s.Checksum}, nil
		}, nil
	}}
}

// cellEntry builds a measured-run entry (warmup + measured, the paper's
// methodology) on a fresh VM each iteration, bypassing the harness cache.
func cellEntry(name, workload, machine string) Entry {
	return Entry{Name: name, Make: func() (func() (Work, error), error) {
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, err
		}
		m := arch.ByName(machine)
		if m == nil {
			return nil, fmt.Errorf("bench: unknown machine %q", machine)
		}
		return func() (Work, error) {
			prog := w.Build(workloads.SizeSmall)
			v := vm.New(prog, vm.Config{Machine: m, Mode: jit.InterIntra, HeapBytes: w.HeapBytes})
			s, err := v.Measure(nil, 1)
			if err != nil {
				return Work{}, err
			}
			return Work{Cycles: s.Cycles, Instructions: s.Instructions, Checksum: s.Checksum}, nil
		}, nil
	}}
}
