package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"strider/internal/flight"
	"strider/internal/harness"
	"strider/internal/telemetry"
)

// Config sizes the service. The zero value is a sensible single-box
// deployment: one worker per core, a bounded run queue, caching and VM
// pooling on.
type Config struct {
	// Shards is the number of workers (default GOMAXPROCS). Every worker
	// drains the one shared run queue, so any idle worker takes any cell,
	// while one cell's executions still run one at a time.
	Shards int
	// QueueDepth is the admission depth per worker (default 64): at most
	// Shards × QueueDepth accepted jobs wait to start. Beyond that a submit
	// gets explicit backpressure: 429 + Retry-After.
	QueueDepth int
	// CacheEntries caps the results the cache holds, in total (default
	// 1024; negative disables result caching). Past the cap, finishing an
	// execution evicts the oldest completed results.
	CacheEntries int
	// PoolKeys caps the number of distinct cells with a parked VM
	// (default 256; negative disables VM pooling).
	PoolKeys int
	// MaxBodyBytes caps the request body (default 64 KiB) — jobs are a
	// few hundred bytes; anything larger is rejected with 413.
	MaxBodyBytes int64
	// RetryAfter is the client backoff hint stamped on 429/503 responses
	// (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
	// Recorder, when non-nil, receives one telemetry.CellEvent per
	// executed job (cache hits and dedup joins are not re-recorded, like
	// the grid engine's dedup behaviour). Must be concurrency-safe.
	Recorder telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.PoolKeys == 0 {
		c.PoolKeys = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 10
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// task is one accepted execution travelling through the run queue.
type task struct {
	spec    harness.Spec
	key     string
	explain bool
	// call is the cache entry this execution finishes, waking every
	// request that joined it (nil for nocache and explain runs).
	call *flight.Call[*Response]
	// resp is set by the worker before done is closed.
	resp *Response
	done chan struct{}
}

// Backpressure outcomes. A cacheable submit that is refused finishes its
// cache entry with one of these, so the requests that joined it fail the
// same way and a later submit of the cell tries again.
var (
	errDraining  = errors.New("server draining")
	errQueueFull = errors.New("run queue full")
)

// worker is one worker goroutine's utilization counters.
type worker struct {
	processed atomic.Uint64
	busyNs    atomic.Int64
	busy      atomic.Bool
}

// Server is the strider execution service. Create with New, mount via
// Handler (or pass directly to http.Server), stop with Drain/Close.
type Server struct {
	cfg     Config
	exec    *executor
	workers []*worker
	// cache holds each cell's response, completed or in flight; nil when
	// result caching is disabled.
	cache *flight.Cache[string, *Response]
	mux   *http.ServeMux
	start time.Time

	// runq is the shared run queue every worker drains. pending counts the
	// accepted tasks that have not started executing — queued or waiting
	// in running — and bounds admission at cap(runq), so a send on runq
	// never blocks.
	runq    chan *task
	pending atomic.Int64
	// running holds the keys being executed, each with the tasks for that
	// key that arrived meanwhile. The worker executing a key runs its
	// waitlist before releasing it, so one cell never runs on two workers
	// at once: its pooled VM is never used concurrently.
	runMu   sync.Mutex
	running map[string][]*task

	// drainMu orders request acceptance against Drain: acceptors hold the
	// read side while checking the flag and registering with jobs.
	drainMu  sync.RWMutex
	draining bool
	jobs     sync.WaitGroup
	stopOnce sync.Once

	inFlight   atomic.Int64
	accepted   atomic.Uint64
	completed  atomic.Uint64
	traps      atomic.Uint64
	rejectFull atomic.Uint64
	rejectGone atomic.Uint64 // rejected because draining
	rejectBad  atomic.Uint64 // validation / protocol rejections
}

// New creates a started server: workers are running and the handler is
// ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		exec:    &executor{pool: newVMPool(poolCap(cfg.PoolKeys)), engine: &harness.Engine{}},
		workers: make([]*worker, cfg.Shards),
		start:   time.Now(),
		runq:    make(chan *task, cfg.Shards*cfg.QueueDepth),
		running: make(map[string][]*task),
	}
	if cfg.CacheEntries > 0 {
		s.cache = &flight.Cache[string, *Response]{Max: cfg.CacheEntries}
	}
	for i := range s.workers {
		s.workers[i] = &worker{}
		go s.work(s.workers[i])
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux
	return s
}

func poolCap(n int) int {
	if n < 0 {
		return 0
	}
	return n
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes the Server itself mountable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops accepting new jobs (503 + Retry-After) and blocks until
// every accepted job has completed — queued and executing work is never
// abandoned. Safe to call more than once.
func (s *Server) Drain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.jobs.Wait()
}

// Draining reports whether the server has begun (or finished) draining.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Close drains the server and stops its workers.
func (s *Server) Close() {
	s.Drain()
	s.stopOnce.Do(func() { close(s.runq) })
}

// work is one worker's loop: take the next task off the shared run queue
// and, unless its key is already executing elsewhere, run it and then
// every task handed off to its key meanwhile.
func (s *Server) work(w *worker) {
	for t := range s.runq {
		if !s.claim(t) {
			continue
		}
		for ; t != nil; t = s.next(t.key) {
			s.execute(w, t)
		}
	}
}

// claim marks t's key as executing and reports true, or appends t to the
// key's waitlist when another worker is executing it.
func (s *Server) claim(t *task) bool {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if wl, busy := s.running[t.key]; busy {
		s.running[t.key] = append(wl, t)
		return false
	}
	s.running[t.key] = nil
	return true
}

// next pops the oldest task waiting on key, or releases the key and
// returns nil when none is waiting.
func (s *Server) next(key string) *task {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	wl := s.running[key]
	if len(wl) == 0 {
		delete(s.running, key)
		return nil
	}
	s.running[key] = wl[1:]
	return wl[0]
}

// execute runs one task on the calling worker and publishes its outcome.
func (s *Server) execute(w *worker, t *task) {
	s.pending.Add(-1)
	w.busy.Store(true)
	start := time.Now()
	resp := s.exec.run(t.spec, t.key, t.explain)
	wall := time.Since(start)
	resp.WallNs = wall.Nanoseconds()
	t.resp = resp
	if t.call != nil {
		s.cache.Finish(t.key, t.call, resp, nil)
	}
	close(t.done)
	if resp.Trap != "" || resp.Err != "" {
		s.traps.Add(1)
	}
	s.completed.Add(1)
	s.inFlight.Add(-1)
	if rec := s.cfg.Recorder; rec != nil {
		ev := telemetry.CellEvent{Cell: t.spec.String(), Wall: wall}
		if resp.Err != "" {
			ev.Err = resp.Err
		}
		rec.Cell(ev)
	}
	w.busyNs.Add(wall.Nanoseconds())
	w.busy.Store(false)
	w.processed.Add(1)
	s.jobs.Done()
}

// errorResponse writes a machine-readable error body.
func writeError(w http.ResponseWriter, status int, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(e)
}

func (s *Server) retryAfterSeconds() string {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) writeBackpressure(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	writeError(w, status, &Error{Err: msg})
}

// handleRun is POST /run: decode, validate, serve from cache, join an
// in-flight execution, or schedule on the run queue — rejecting with
// 429 + Retry-After when the admission bound is reached.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.rejectBad.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, &Error{Err: "method " + r.Method + " not allowed on /run (use POST)"})
		return
	}
	var jb Job
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jb); err != nil {
		s.rejectBad.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, &Error{
				Err: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
			})
			return
		}
		writeError(w, http.StatusBadRequest, &Error{Err: "invalid JSON: " + err.Error()})
		return
	}
	if e := jb.Validate(); e != nil {
		s.rejectBad.Add(1)
		writeError(w, http.StatusBadRequest, e)
		return
	}
	explain := r.URL.Query().Get("explain") == "1"
	nocache := explain || r.URL.Query().Get("nocache") == "1"
	spec := jb.Spec().Canonical()
	key := spec.Key()

	// Cache fast path (and singleflight join) — no queue slot consumed.
	var call *flight.Call[*Response]
	if !nocache && s.cache != nil {
		var st flight.Status
		call, st = s.cache.Claim(key)
		switch st {
		case flight.Hit:
			resp, _ := call.Result()
			s.writeResponse(w, resp, true)
			return
		case flight.Joined:
			s.waitAndRespond(w, r, call.Done(), call.Result)
			return
		}
	}

	t := &task{spec: spec, key: key, explain: explain, call: call, done: make(chan struct{})}
	if err := s.enqueue(t); err != nil {
		if call != nil {
			s.cache.Finish(key, call, nil, err)
		}
		s.reject(w, err)
		return
	}
	s.waitAndRespond(w, r, t.done, func() (*Response, error) { return t.resp, nil })
}

// enqueue accepts a task onto the run queue, or returns errDraining or
// errQueueFull when the server is draining or the admission bound is
// reached.
func (s *Server) enqueue(t *task) error {
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		return errDraining
	}
	s.jobs.Add(1)
	s.drainMu.RUnlock()

	if s.pending.Add(1) > int64(cap(s.runq)) {
		s.pending.Add(-1)
		s.jobs.Done()
		return errQueueFull
	}
	s.accepted.Add(1)
	s.inFlight.Add(1)
	s.runq <- t
	return nil
}

// reject counts and writes a backpressure refusal: 503 while draining,
// 429 when the run queue is full.
func (s *Server) reject(w http.ResponseWriter, err error) {
	if errors.Is(err, errDraining) {
		s.rejectGone.Add(1)
		s.writeBackpressure(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.rejectFull.Add(1)
	s.writeBackpressure(w, http.StatusTooManyRequests, err.Error())
}

// waitAndRespond blocks until the execution completes (or the client goes
// away — the execution itself always finishes and publishes), then writes
// its response, or the refusal of an execution that was never enqueued.
func (s *Server) waitAndRespond(w http.ResponseWriter, r *http.Request, done <-chan struct{}, result func() (*Response, error)) {
	select {
	case <-done:
	case <-r.Context().Done():
		// The client hung up; the job still completes and (if cacheable)
		// publishes. Nothing useful can be written.
		return
	}
	rp, err := result()
	if err != nil {
		s.reject(w, err)
		return
	}
	s.writeResponse(w, rp, false)
}

// writeResponse renders a response, stamping the per-request serving
// metadata on a copy so the cached canonical value stays immutable.
func (s *Server) writeResponse(w http.ResponseWriter, rp *Response, cached bool) {
	out := *rp
	out.Cached = cached
	if cached {
		out.Pooled = false
		out.WallNs = 0
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(&out)
}

// ShardStats is one worker's /stats row.
type ShardStats struct {
	Processed   uint64  `json:"processed"`
	Busy        bool    `json:"busy"`
	Utilization float64 `json:"utilization"`
}

// QueueStats is the run queue's /stats section: Len counts the accepted
// jobs that have not started executing, Cap is the admission bound.
type QueueStats struct {
	Len int `json:"len"`
	Cap int `json:"cap"`
}

// CacheStats is the result cache's /stats section. Entries counts the
// cells held, executions in flight included.
type CacheStats struct {
	Entries    int     `json:"entries"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	DedupJoins uint64  `json:"dedup_joins"`
	Evictions  uint64  `json:"evictions"`
	HitRate    float64 `json:"hit_rate"`
}

// ProfileStats is the PGO profile cache's /stats section. The counters
// come from the server's private harness Engine, so they count this
// server's profiling alone: a hit is a PGO job served from a cached or
// in-flight profile, a miss is one that paid a dynamic profiling run.
type ProfileStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Stats is the GET /stats body.
type Stats struct {
	Draining  bool         `json:"draining"`
	UptimeNs  int64        `json:"uptime_ns"`
	InFlight  int64        `json:"in_flight"`
	Accepted  uint64       `json:"accepted"`
	Completed uint64       `json:"completed"`
	Traps     uint64       `json:"traps"`
	Rejected  RejectStats  `json:"rejected"`
	Queue     QueueStats   `json:"queue"`
	Shards    []ShardStats `json:"shards"`
	Cache     CacheStats   `json:"cache"`
	Pool      PoolStats    `json:"pool"`
	Profiles  ProfileStats `json:"profiles"`
}

// RejectStats breaks down refused requests.
type RejectStats struct {
	QueueFull uint64 `json:"queue_full"`
	Draining  uint64 `json:"draining"`
	Invalid   uint64 `json:"invalid"`
}

// StatsSnapshot assembles the current Stats (also used by tests without
// going through HTTP).
func (s *Server) StatsSnapshot() Stats {
	uptime := time.Since(s.start)
	st := Stats{
		Draining:  s.Draining(),
		UptimeNs:  uptime.Nanoseconds(),
		InFlight:  s.inFlight.Load(),
		Accepted:  s.accepted.Load(),
		Completed: s.completed.Load(),
		Traps:     s.traps.Load(),
		Rejected: RejectStats{
			QueueFull: s.rejectFull.Load(),
			Draining:  s.rejectGone.Load(),
			Invalid:   s.rejectBad.Load(),
		},
		Queue: QueueStats{Len: int(s.pending.Load()), Cap: cap(s.runq)},
		Pool:  s.exec.pool.stats(),
	}
	ec := s.exec.engine.Counters()
	st.Profiles = ProfileStats{Hits: ec.ProfileHits, Misses: ec.ProfileMisses}
	for _, w := range s.workers {
		util := 0.0
		if uptime > 0 {
			util = float64(w.busyNs.Load()) / float64(uptime.Nanoseconds())
		}
		st.Shards = append(st.Shards, ShardStats{
			Processed:   w.processed.Load(),
			Busy:        w.busy.Load(),
			Utilization: util,
		})
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		rate := 0.0
		if n := cs.Hits + cs.Misses + cs.Joins; n > 0 {
			rate = float64(cs.Hits) / float64(n)
		}
		st.Cache = CacheStats{
			Entries:    cs.Entries,
			Hits:       cs.Hits,
			Misses:     cs.Misses,
			DedupJoins: cs.Joins,
			Evictions:  cs.Evictions,
			HitRate:    rate,
		}
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.rejectBad.Add(1)
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, &Error{Err: "method " + r.Method + " not allowed on /stats (use GET)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.StatsSnapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.rejectBad.Add(1)
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, &Error{Err: "method " + r.Method + " not allowed on /healthz (use GET)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
}
