package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRaceHammer is the race-detector workout (the CI -race job runs this
// package): many goroutines submitting a mix of cacheable, nocache, explain,
// fuzz, and invalid jobs, a concurrent /stats poller, and a drain initiated
// mid-stream. Every accepted job must complete; every response must be one
// of the documented statuses.
func TestRaceHammer(t *testing.T) {
	srv := New(Config{Shards: 4, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cells := []struct {
		path string
		body string
	}{
		{"/run", `{"workload":"jess"}`},
		{"/run", `{"workload":"search","mode":"baseline"}`},
		{"/run?nocache=1", `{"workload":"db","machine":"AthlonMP"}`},
		{"/run?explain=1", `{"workload":"euler"}`},
		{"/run", `{"workload":"fuzz:0x3"}`},
		{"/run", `{"workload":"fuzz:0x7","heap_bytes":4096}`}, // deterministic trap
		{"/run", `{"workload":"no-such-workload"}`},           // 400
	}

	const (
		goroutines = 8
		perG       = 20
	)
	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		started = make(chan struct{})
		badCode atomic.Int64
	)

	// Concurrent /stats poller: must never race with workers or drain.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := ts.Client().Get(ts.URL + "/stats")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	var submitters sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			for i := 0; i < perG; i++ {
				if g == 0 && i == perG/2 {
					close(started) // trigger the mid-stream drain
				}
				c := cells[(g*perG+i)%len(cells)]
				resp, err := ts.Client().Post(ts.URL+c.path, "application/json",
					bytes.NewReader([]byte(c.body)))
				if err != nil {
					continue // drain may close keep-alive conns; not a failure
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusBadRequest,
					http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					badCode.Add(1)
					t.Errorf("unexpected status %d for %s %s", resp.StatusCode, c.path, c.body)
				}
				if resp.StatusCode == http.StatusOK {
					var out Response
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						t.Errorf("bad response body: %v", err)
					}
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}

	// Mid-stream drain: the service must refuse new work with 503 while
	// finishing everything already accepted.
	<-started
	srv.Drain()

	submitters.Wait()
	close(stop)
	wg.Wait()
	srv.Close()

	st := srv.StatsSnapshot()
	if !st.Draining {
		t.Error("stats do not report draining")
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight not zero after drain: %d", st.InFlight)
	}
	if st.Accepted != st.Completed {
		t.Errorf("accepted %d != completed %d after drain", st.Accepted, st.Completed)
	}
	if st.Queue.Len != 0 {
		t.Errorf("run queue not drained: %+v", st.Queue)
	}
	if badCode.Load() > 0 {
		t.Errorf("%d responses outside the documented status set", badCode.Load())
	}
}
