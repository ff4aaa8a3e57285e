package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestIdleWorkerTakesOtherCell pins work conservation: while one worker
// is held busy, a job for a different cell runs on the other worker.
func TestIdleWorkerTakesOtherCell(t *testing.T) {
	gate := &gateRecorder{gate: make(chan struct{})}
	srv := New(Config{Shards: 2, Recorder: gate})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(gate.gate) // before ts.Close: release the held workers

	a, b := Job{Workload: "fuzz:0x1"}, Job{Workload: "fuzz:0x2"}

	// Job A executes; its worker then blocks in the recorder.
	if code, _ := postJob(t, ts, "/run?nocache=1", a); code != http.StatusOK {
		t.Fatalf("job A: status %d", code)
	}

	// Job B must not wait for A's worker: the other worker is idle.
	bDone := make(chan error, 1)
	go func() {
		code, resp, err := tryPost(ts, "/run?nocache=1", b)
		if err == nil && (code != http.StatusOK || resp.Stats == nil) {
			err = fmt.Errorf("job B (%s): status %d resp %+v", b.Workload, code, resp)
		}
		bDone <- err
	}()
	waitFor(t, func() bool { return srv.StatsSnapshot().Completed == 2 })
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmitsOfOneCellShareItsVM pins the per-cell handoff:
// concurrent nocache submits of one warm cell all run on its one parked
// VM, one after another. Running the cell on two workers at once would
// find the pool empty and build a second, fresh VM.
func TestConcurrentSubmitsOfOneCellShareItsVM(t *testing.T) {
	srv := New(Config{Shards: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jb := Job{Workload: "jess"}
	if code, resp := postJob(t, ts, "/run?nocache=1", jb); code != http.StatusOK || resp.Pooled {
		t.Fatalf("warm-up: status %d pooled %v", code, resp.Pooled)
	}

	const n = 8
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, resp, err := tryPost(ts, "/run?nocache=1", jb)
			if err != nil || code != http.StatusOK || !resp.Pooled {
				t.Errorf("submit %d: status %d pooled %v err %v", i, code, resp.Pooled, err)
			}
		}()
	}
	wg.Wait()
	st := srv.StatsSnapshot()
	if st.Pool.Misses != 1 {
		t.Errorf("pool misses = %d, want 1 (the warm-up only)", st.Pool.Misses)
	}
	if st.Pool.Poisoned != 0 {
		t.Errorf("pool poisoned = %d, want 0", st.Pool.Poisoned)
	}
}
