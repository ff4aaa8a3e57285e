package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"strider/internal/harness"
	"strider/internal/server"
)

// serveEnv is an in-process execution service on a loopback listener,
// driven by the benchmark's own HTTP clients and request bodies.
type serveEnv struct {
	r      *runState
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	client *http.Client
	base   string // http://host:port
	runURL string
	bodies [][]byte
	specs  []harness.Spec
}

// setupServeExec starts a service and executes every full-size cell
// once with ?nocache=1, so that every op afterwards runs on a pooled VM.
func setupServeExec(r *runState) (env, error) { return startService(r, true) }

// setupServeHit starts a service and executes every battery cell once,
// so that every op afterwards is a result-cache hit.
func setupServeHit(r *runState) (env, error) { return startService(r, false) }

func startService(r *runState, nocache bool) (env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &serveEnv{
		r:      r,
		srv:    server.New(server.Config{}),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.w.clients, DisableCompression: true}},
		base:   "http://" + ln.Addr().String(),
	}
	e.runURL = e.base + "/run"
	if nocache {
		e.runURL += "?nocache=1"
	}
	for _, c := range r.w.cells {
		e.bodies = append(e.bodies, c.body())
		e.specs = append(e.specs, c.spec())
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()

	// Every cell once, dealt round the clients in table order: a fixed
	// order keeps set-up time free of the seed's shard collisions.
	errs := make([]error, r.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(r.w.cells); i += r.w.clients {
				if res := e.op(i, nil, -1); res.err != nil {
					errs[c] = res.err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// response is the part of a /run response the benchmark reads.
type response struct {
	Checksum string          `json:"checksum"`
	Stats    json.RawMessage `json:"stats"`
	Trap     string          `json:"trap"`
	Err      string          `json:"error"`
	WallNs   int64           `json:"wall_ns"`
}

func (e *serveEnv) op(i int, tr *tracer, id int64) opResult {
	c := e.r.w.cells[i]
	op := tr.begin("op", -1, id)
	if tr != nil {
		sp := tr.begin("harness.key", op, id)
		_ = e.specs[i].Key()
		tr.end(sp)
	}
	sp := tr.begin("server.request", op, id)
	start := time.Now()
	body, status, err := e.post(e.bodies[i])
	res := opResult{lat: time.Since(start), respBytes: len(body)}
	tr.end(sp)
	tr.end(op)
	if err != nil {
		res.err = fmt.Errorf("%s: %w", c, err)
		return res
	}
	if status != http.StatusOK {
		res.err = fmt.Errorf("%s: status %d: %s", c, status, bytes.TrimSpace(body))
		return res
	}
	var rp response
	if err := json.Unmarshal(body, &rp); err != nil {
		res.err = fmt.Errorf("%s: decoding response: %w", c, err)
		return res
	}
	if rp.Trap != "" || rp.Err != "" {
		res.err = fmt.Errorf("%s: unexpected trap %q: %s", c, rp.Trap, rp.Err)
		return res
	}
	sum, err := strconv.ParseUint(rp.Checksum, 16, 64)
	if err != nil {
		res.err = fmt.Errorf("%s: checksum %q: %w", c, rp.Checksum, err)
		return res
	}
	res.wallNs = rp.WallNs
	if tr != nil && rp.WallNs > 0 {
		end := tr.spans[sp].end
		tr.record("server.exec", sp, id, end-rp.WallNs, end)
	}
	res.stats, res.err = e.r.check(c, sum, rp.Stats)
	return res
}

func (e *serveEnv) post(body []byte) ([]byte, int, error) {
	resp, err := e.client.Post(e.runURL, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// serviceStats is the part of /stats the traced run reports.
type serviceStats struct {
	Rejected struct {
		QueueFull uint64 `json:"queue_full"`
		Draining  uint64 `json:"draining"`
		Invalid   uint64 `json:"invalid"`
	} `json:"rejected"`
	Shards []struct {
		Utilization float64 `json:"utilization"`
	} `json:"shards"`
	Cache struct {
		Hits       uint64 `json:"hits"`
		Misses     uint64 `json:"misses"`
		DedupJoins uint64 `json:"dedup_joins"`
	} `json:"cache"`
	Pool struct {
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Poisoned uint64 `json:"poisoned"`
	} `json:"pool"`
}

// close reads /stats, then shuts the listener, the service's workers and
// the client's connections down, waiting for the serving goroutine.
func (e *serveEnv) close() (serviceStats, error) {
	var st serviceStats
	resp, err := e.client.Get(e.base + "/stats")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := e.hs.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	<-e.served
	e.srv.Close()
	e.client.CloseIdleConnections()
	if err != nil {
		return st, fmt.Errorf("service stats: %w", err)
	}
	return st, nil
}
