// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a given time in closed loop, checks every op's output
// against the checksums pinned in cells.go, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON object
// on the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-exec --seed 1 --seconds 25 --trace 0
//
// README.md records why each workload was chosen, what is left
// unmeasured, and how steady the metrics are.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"strider/internal/vm"
)

// workload is one traffic mix: its cells, its closed-loop client count,
// and how to set it up. Each set-up returns a fresh env the ops run on.
type workload struct {
	name    string
	cells   []cell
	clients int
	setup   func(r *runState) (env, error)
	// replay is whether the traced run ends with a replay of the cells'
	// executions standing for the ops' layers inside the service, where
	// the benchmark cannot put a span (see replay).
	replay bool
	// tailPct is the percentile tail_ms reads. It is fixed per workload,
	// so a faster program is read at the same percentile, and set so
	// that a run of the benchmark's length has at least ten ops beyond it.
	tailPct float64
}

// env is one set-up instance of a workload.
type env interface {
	// op runs one op on cell i and checks its output. tr is nil outside
	// the traced segments.
	op(i int, tr *tracer, id int64) opResult
	// close stops everything the set-up started and reports the
	// service's own counters (zero for workloads without a service).
	close() (serviceStats, error)
}

// opResult is one op as the client saw it.
type opResult struct {
	lat   time.Duration
	err   error
	stats *vm.RunStats // the cell's simulated statistics; nil on failure

	wallNs    int64 // the service's execution time
	respBytes int   // response body size
}

var workloadTable = map[string]*workload{
	"serve-exec": {name: "serve-exec", cells: serveExecCells(), clients: 2, setup: setupServeExec, replay: true, tailPct: 95},
	"serve-hit":  {name: "serve-hit", cells: batteryCells(), clients: 2, setup: setupServeHit, tailPct: 99},
}

func workloadNames() []string {
	var names []string
	for n := range workloadTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run %v", workloadNames()))
	seed := fs.Uint64("seed", 1, "seed for the order of cells and requests")
	seconds := fs.Float64("seconds", 25, "timed seconds, split evenly across the segments")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spans := fs.String("spans", "", "traced runs write their spans here (default .bench_build/spans-<workload>-<seed>.csv.gz)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadTable[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans-%s-%d.csv.gz", w.name, *seed)
	}
	r := &runState{w: w, seed: *seed, rots: make([]rotation, w.clients), firstSeen: map[string][]byte{}, canon: map[string]*vm.RunStats{}}
	d := time.Duration(*seconds * float64(time.Second))
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = r.traced(d, *spans, stdout)
	} else {
		res, err = r.untraced(d, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "sim-digest %s cells=%d %016x\n", w.name, len(r.canon), r.digest())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runState is one benchmark run: the workload, the seed, the output
// checks, and a running op id.
type runState struct {
	w    *workload
	seed uint64
	rots []rotation // each client's
	opID atomic.Int64
	// rssPerSegment is whether the last set-up could restart the peak RSS.
	rssPerSegment bool

	mu        sync.Mutex
	firstSeen map[string][]byte       // cell -> its stats as first seen (JSON)
	canon     map[string]*vm.RunStats // cell -> those stats, decoded
}

// check verifies one op's output: the pinned result checksum, and stats
// identical to the first time this run saw the cell. It returns the
// cell's canonical stats.
func (r *runState) check(c cell, checksum uint64, statsJSON []byte) (*vm.RunStats, error) {
	if want := c.pinned(); checksum != want {
		return nil, fmt.Errorf("%s: checksum %016x, pinned %016x", c, checksum, want)
	}
	k := c.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	if first, ok := r.firstSeen[k]; ok {
		if !bytes.Equal(first, statsJSON) {
			return nil, fmt.Errorf("%s: simulated statistics differ from the cell's first run", c)
		}
		return r.canon[k], nil
	}
	st := new(vm.RunStats)
	if err := json.Unmarshal(statsJSON, st); err != nil {
		return nil, fmt.Errorf("%s: decoding stats: %w", c, err)
	}
	r.firstSeen[k] = bytes.Clone(statsJSON)
	r.canon[k] = st
	return st, nil
}

// digest hashes every cell's simulated statistics (cycles, instructions,
// memory-system, hardware- and software-prefetch counters, JIT ledger),
// in cell order. It is the same on every run of the same program, so a
// host-side speed-up can be shown to leave the modelled machine alone.
func (r *runState) digest() uint64 {
	keys := make([]string, 0, len(r.firstSeen))
	for k := range r.firstSeen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(r.firstSeen[k])
	}
	return h.Sum64()
}

// segment is one timed stretch between set-ups.
type segment struct {
	clients []clientRun
	cpu     time.Duration // the whole process's, while the segment ran
	spans   *tracer       // nil when untraced
}

// clientRun is one client's part of a segment. Untraced segments keep
// only what the headline metrics need, so the benchmark's own records
// add little to the process's memory and garbage.
type clientRun struct {
	lats   []time.Duration // every op's latency
	errs   []error         // every failed op's error
	instr  uint64          // simulated measured-run instructions of the results
	ops    []opResult      // every op in full; traced segments only
	active time.Duration   // from the segment's start to this client's last reply
}

func (cr *clientRun) add(o opResult, keep bool) {
	cr.lats = append(cr.lats, o.lat)
	if o.err != nil {
		cr.errs = append(cr.errs, o.err)
	} else {
		cr.instr += o.stats.Instructions
	}
	if keep {
		cr.ops = append(cr.ops, o)
	}
}

// ops returns the segment's full op records (traced segments only).
func (s segment) ops() []opResult {
	var ops []opResult
	for _, c := range s.clients {
		ops = append(ops, c.ops...)
	}
	return ops
}

// rotation is where a client is in its current pass over the cells. It
// carries over from one segment to the next, so a run's orders depend on
// the seed alone, however the segments and clients interleave.
type rotation struct {
	k     int   // rotations started so far
	order []int // the current one's cell order
	pos   int   // cells of it done
}

// next returns the client's next cell, starting a new seeded rotation
// when the current one is done.
func (r *runState) next(c int) int {
	rot := &r.rots[c]
	if rot.pos == len(rot.order) {
		rng := rand.New(rand.NewPCG(r.seed, uint64(c)<<32|uint64(rot.k)))
		rot.order, rot.pos = rng.Perm(len(r.w.cells)), 0
		rot.k++
	}
	rot.pos++
	return rot.order[rot.pos-1]
}

// runSegment drives the workload in closed loop for d: each client sends
// its next cell and waits for the reply, without waiting for the other
// clients. A segment stops at the first op boundary after d, except the
// run's last segment, which lets each client finish its rotation; so a
// run's ops are whole rotations, and its rates do not depend on which
// cells happened to fall inside it.
func (r *runState) runSegment(e env, d time.Duration, traced, last bool, epoch time.Time) segment {
	n := r.w.clients
	trs := make([]*tracer, n)
	runs := make([]clientRun, n)
	var wg sync.WaitGroup
	start, cpu := time.Now(), cpuTime()
	for c := 0; c < n; c++ {
		if traced {
			trs[c] = newTracer(epoch)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rot := &r.rots[c]
			for {
				due := time.Since(start) >= d
				if due && (!last || rot.pos == len(rot.order)) {
					break
				}
				runs[c].add(e.op(r.next(c), trs[c], r.opID.Add(1)), traced)
			}
			runs[c].active = time.Since(start)
		}(c)
	}
	wg.Wait()
	out := segment{clients: runs, cpu: cpuTime() - cpu}
	if traced {
		out.spans = newTracer(epoch)
		out.spans.merge(trs...)
	}
	return out
}

// segments is the number of set-ups in a run; each is followed by its
// share of the timed seconds, so set-up samples spread over the run.
const segments = 5

// setupTimed runs one set-up from a collected heap, with the previous
// set-up's memory handed back to the OS, and times it. It then collects
// the set-up's garbage the same way and restarts the peak RSS, so that a
// segment's peak is what its ops need on top of the set-up's live data,
// not where the set-up's last GC cycle happened to fall.
func (r *runState) setupTimed() (env, time.Duration, error) {
	debug.FreeOSMemory()
	start := time.Now()
	e, err := r.w.setup(r)
	st := time.Since(start)
	debug.FreeOSMemory()
	r.rssPerSegment = resetPeakRSS()
	return e, st, err
}

// untraced is the headline run: segments set-ups, each followed by its
// share of the timed seconds, so set-up samples and op samples both
// spread over the whole run.
func (r *runState) untraced(d time.Duration, log io.Writer) (result, error) {
	var (
		setups, rss []float64
		segs        []segment
	)
	for k := 0; k < segments; k++ {
		e, st, err := r.setupTimed()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st.Seconds())
		segs = append(segs, r.runSegment(e, d/segments, false, k == segments-1, time.Now()))
		rss = append(rss, peakRSSMB())
		if _, err := e.close(); err != nil {
			return result{}, err
		}
	}
	return r.endToEnd(setups, rss, segs, log), nil
}

// rates returns the workload's ops and simulated instructions per second
// over segs: the sum over clients of each client's ops (instructions)
// over its active time.
func (r *runState) rates(segs []segment) (ops, instr float64) {
	for c := 0; c < r.w.clients; c++ {
		var (
			active time.Duration
			n, in  uint64
		)
		for _, s := range segs {
			cr := s.clients[c]
			active += cr.active
			n += uint64(len(cr.lats))
			in += cr.instr
		}
		if active > 0 {
			ops += float64(n) / active.Seconds()
			instr += float64(in) / active.Seconds()
		}
	}
	return ops, instr
}

// endToEnd derives the headline metrics. Every one aggregates samples
// from the whole run: the median of the set-ups and of the segments'
// peak RSS, and totals, the median and the tail over every op of every
// segment.
func (r *runState) endToEnd(setups, rss []float64, segs []segment, log io.Writer) result {
	var (
		lats   []float64
		cpu    time.Duration
		failed int
	)
	for _, s := range segs {
		cpu += s.cpu
		for _, cr := range s.clients {
			for _, l := range cr.lats {
				lats = append(lats, float64(l.Nanoseconds())/1e6)
			}
			for _, err := range cr.errs {
				failed++
				fmt.Fprintln(log, "op failed:", err)
			}
		}
	}
	n := len(lats)
	opsRate, instrRate := r.rates(segs)
	tail := quantile(lats, r.w.tailPct/100)
	fmt.Fprintf(log, "%s: %d ops over %d segments; set-up samples %.3f s\n", r.w.name, n, len(segs), setups)
	if !r.rssPerSegment {
		fmt.Fprintln(log, "peak RSS could not be restarted per segment: rss_mb is the peak since the process started")
	}
	fmt.Fprintf(log, "peak RSS per segment %.1f MB\n", rss)
	fmt.Fprintf(log, "tail_ms is p%g of %d samples (%d beyond it)\n", r.w.tailPct, n, beyond(lats, tail))
	fmt.Fprintf(log, "error_rate %g (%d failed of %d)\n", float64(failed)/float64(max(n, 1)), failed, n)
	return result{
		Correct:   failed == 0 && n > 0,
		Attempted: n,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"ops_per_s":        {opsRate, "1/s"},
			"p50_ms":           {median(lats), "ms"},
			"tail_ms":          {tail, "ms"},
			"cpu_ms_per_op":    {float64(cpu.Nanoseconds()) / 1e6 / float64(max(n, 1)), "ms"},
			"rss_mb":           {median(rss), "MB"},
			"sim_minstr_per_s": {instrRate / 1e6, "Minstr/s"},
		},
	}
}

// beyond counts the samples above x.
func beyond(xs []float64, x float64) int {
	k := 0
	for _, v := range xs {
		if v > x {
			k++
		}
	}
	return k
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size (VmHWM) from its current size, so that each segment
// reads its own peak. It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set size in MiB since the
// last resetPeakRSS, or since it started if none succeeded.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
