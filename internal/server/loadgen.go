package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"strider/internal/harness"
)

// LoadOptions configures a load run against a running strider service.
type LoadOptions struct {
	// URL is the service base URL, e.g. "http://127.0.0.1:8120".
	URL string
	// Jobs are the cells to submit, cycled round-robin by request index —
	// a fixed request count therefore submits a deterministic multiset of
	// cells regardless of scheduling.
	Jobs []Job
	// Concurrency is the number of client workers (default 8).
	Concurrency int
	// Requests is the total number of submissions (default 256 when
	// Duration is unset).
	Requests int
	// Duration, when non-zero, bounds the run by wall clock instead of by
	// request count.
	Duration time.Duration
	// NoCache submits with ?nocache=1, forcing every request to execute
	// (on a pooled VM after the first) instead of hitting the result cache.
	NoCache bool
	// Verify maps cell keys to expected checksums ("%016x"); responses
	// whose checksum differs are counted in LoadStats.Mismatches.
	Verify map[string]string
	// Client overrides the HTTP client (default: a dedicated client).
	Client *http.Client
}

// LoadStats is the outcome of a load run.
type LoadStats struct {
	Requests     uint64 // submissions attempted
	OK           uint64 // 200 responses
	Backpressure uint64 // 429/503 responses (documented overload outcomes)
	Traps        uint64 // 200 responses reporting a deterministic trap
	Errors       uint64 // transport failures and undocumented statuses
	Mismatches   uint64 // OK responses whose checksum failed Verify
	// Checksum is a wraparound sum of every OK response's result checksum —
	// order-independent, so a deterministic request multiset yields a
	// deterministic fold however the requests interleave.
	Checksum uint64
	Elapsed  time.Duration

	latencies []time.Duration
}

// Rate returns completed submissions per second.
func (s LoadStats) Rate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Requests) / s.Elapsed.Seconds()
}

// Percentile returns the p-th latency percentile (0 < p <= 100) over all
// submissions, or 0 when nothing was recorded.
func (s LoadStats) Percentile(p float64) time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(s.latencies))
	copy(sorted, s.latencies)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RunLoad drives a strider service with concurrent submissions and
// tallies the outcome. It is the engine behind both the striderload CLI
// and the server/throughput bench entry.
func RunLoad(opts LoadOptions) (LoadStats, error) {
	if opts.URL == "" {
		return LoadStats{}, errors.New("loadgen: no service URL")
	}
	if len(opts.Jobs) == 0 {
		return LoadStats{}, errors.New("loadgen: no jobs")
	}
	workers := opts.Concurrency
	if workers <= 0 {
		workers = 8
	}
	total := opts.Requests
	if total <= 0 && opts.Duration <= 0 {
		total = 256
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	path := "/run"
	if opts.NoCache {
		path = "/run?nocache=1"
	}

	bodies := make([][]byte, len(opts.Jobs))
	for i, jb := range opts.Jobs {
		b, err := json.Marshal(jb)
		if err != nil {
			return LoadStats{}, fmt.Errorf("loadgen: encode job %d: %w", i, err)
		}
		bodies[i] = b
	}

	var (
		next     atomic.Int64
		deadline time.Time
		start    = time.Now()

		mu    sync.Mutex
		stats LoadStats
	)
	if opts.Duration > 0 {
		deadline = start.Add(opts.Duration)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if total > 0 && int(i) >= total {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(opts.URL+path, "application/json",
					bytes.NewReader(bodies[int(i)%len(bodies)]))
				lat := time.Since(t0)

				mu.Lock()
				stats.Requests++
				stats.latencies = append(stats.latencies, lat)
				if err != nil {
					stats.Errors++
					mu.Unlock()
					continue
				}
				mu.Unlock()

				var out Response
				decodeErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()

				mu.Lock()
				switch {
				case resp.StatusCode == http.StatusOK && decodeErr == nil:
					if out.Trap != "" || out.Err != "" {
						stats.Traps++
					} else {
						stats.OK++
						var sum uint64
						fmt.Sscanf(out.Checksum, "%016x", &sum)
						stats.Checksum += sum
						if want, ok := opts.Verify[out.Key]; ok && out.Checksum != want {
							stats.Mismatches++
						}
					}
				case resp.StatusCode == http.StatusTooManyRequests,
					resp.StatusCode == http.StatusServiceUnavailable:
					stats.Backpressure++
				default:
					stats.Errors++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// SerialBaseline executes each distinct job serially in-process on fresh
// VMs — no cache, no pool — and returns the cell-key → checksum map that
// RunLoad's Verify option compares service responses against. It owns a
// private harness Engine, which PGO jobs build their profiles through.
func SerialBaseline(jobs []Job) (map[string]string, error) {
	e := &executor{pool: newVMPool(0), engine: new(harness.Engine)}
	want := make(map[string]string)
	for _, jb := range jobs {
		spec := jb.Spec().Canonical()
		key := spec.Key()
		if _, done := want[key]; done {
			continue
		}
		resp := e.run(spec, key, false)
		if resp.Err != "" {
			return nil, fmt.Errorf("loadgen: serial baseline for %s: %s", key, resp.Err)
		}
		want[key] = resp.Checksum
	}
	return want, nil
}
