package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"strider/internal/harness"
)

// postJob submits a job body to the test server and decodes the response.
func postJob(t *testing.T, ts *httptest.Server, path string, jb Job) (int, Response) {
	t.Helper()
	code, out, err := tryPost(ts, path, jb)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// tryPost is postJob for goroutines other than the test's own: it returns
// the error instead of failing the test.
func tryPost(ts *httptest.Server, path string, jb Job) (int, Response, error) {
	var out Response
	body, err := json.Marshal(jb)
	if err != nil {
		return 0, out, err
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return 0, out, fmt.Errorf("decode response: %w", err)
		}
	}
	return resp.StatusCode, out, nil
}

// sameDeterministic compares the deterministic payload of two responses,
// dereferencing Stats (a pointer, so decoded responses never share it).
func sameDeterministic(a, b Response) bool {
	da, db := a.Deterministic(), b.Deterministic()
	if (da.Stats == nil) != (db.Stats == nil) {
		return false
	}
	if da.Stats != nil && *da.Stats != *db.Stats {
		return false
	}
	da.Stats, db.Stats = nil, nil
	return da == db
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunBasic pins the fundamental serving contract on one cell: a fresh
// execution, then a cache hit, both byte-identical to the harness engine's
// own result for the same cell.
func TestRunBasic(t *testing.T) {
	srv := New(Config{Shards: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jb := Job{Workload: "jess", Size: "small", Machine: "Pentium4", Mode: "inter+intra"}
	code, first := postJob(t, ts, "/run", jb)
	if code != http.StatusOK {
		t.Fatalf("first submit: status %d", code)
	}
	if first.Cached {
		t.Error("first response claims cached")
	}
	if first.Stats == nil || first.Trap != "" {
		t.Fatalf("first response missing stats: %+v", first)
	}

	harness.ClearCache()
	want, err := harness.Run(jb.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Checksum != want.Checksum || first.Stats.Cycles != want.Cycles {
		t.Errorf("server result diverges from harness: %+v vs %+v", *first.Stats, want)
	}

	code, second := postJob(t, ts, "/run", jb)
	if code != http.StatusOK {
		t.Fatalf("second submit: status %d", code)
	}
	if !second.Cached {
		t.Error("second response not served from cache")
	}
	if !sameDeterministic(second, first) {
		t.Errorf("cached response differs from fresh: %+v vs %+v", second, first)
	}

	st := getStats(t, ts)
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache counters: %+v", st.Cache)
	}
	if st.Completed != 1 || st.Accepted != 1 {
		t.Errorf("request counters: %+v", st)
	}
}

// TestRunPooled pins the pooled path: nocache re-submissions of one cell
// must reuse the parked VM and reproduce the fresh response exactly.
func TestRunPooled(t *testing.T) {
	srv := New(Config{Shards: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jb := Job{Workload: "search", Mode: "baseline"}
	_, first := postJob(t, ts, "/run?nocache=1", jb)
	if first.Pooled {
		t.Error("first execution cannot be pooled")
	}
	for i := 0; i < 3; i++ {
		_, again := postJob(t, ts, "/run?nocache=1", jb)
		if !again.Pooled {
			t.Errorf("re-submission %d did not reuse the pooled VM", i)
		}
		if !sameDeterministic(again, first) {
			t.Errorf("pooled response %d differs from fresh:\n%+v\nvs\n%+v", i, again, first)
		}
		if again.Stats == nil || first.Stats == nil || *again.Stats != *first.Stats {
			t.Errorf("pooled stats %d differ from fresh", i)
		}
	}
	st := getStats(t, ts)
	if st.Pool.Hits != 3 || st.Pool.Poisoned != 0 {
		t.Errorf("pool counters: %+v", st.Pool)
	}
}

// TestExplain pins ?explain=1: a fresh uncached run whose decision log
// matches harness.Explain for the same cell.
func TestExplain(t *testing.T) {
	srv := New(Config{Shards: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jb := Job{Workload: "jess"}
	code, resp := postJob(t, ts, "/run?explain=1", jb)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Explain == "" {
		t.Fatal("no decision trace in explain response")
	}
	want, err := harness.Explain(jb.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Explain != want {
		t.Errorf("explain log diverges from harness.Explain (%d vs %d bytes)", len(resp.Explain), len(want))
	}
	if resp.Cached {
		t.Error("explain responses must not be cached")
	}
	// Explain bypasses the cache entirely: a subsequent plain run executes.
	_, plain := postJob(t, ts, "/run", jb)
	if plain.Cached {
		t.Error("explain run leaked into the result cache")
	}
	if plain.Explain != "" {
		t.Error("plain run carries an explain log")
	}
}

// TestHealthzAndDrain pins the drain lifecycle: healthy, then draining
// (503 + Retry-After on /run and /healthz), with queued work completing.
func TestHealthzAndDrain(t *testing.T) {
	srv := New(Config{Shards: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}

	code, _ := postJob(t, ts, "/run", Job{Workload: "jess"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	srv.Close()
}

// TestFuzzJobs pins the fuzz:<seed> program source, including a trapping
// cell (tiny heap forces the oracle's out-of-memory trap class).
func TestFuzzJobs(t *testing.T) {
	srv := New(Config{Shards: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, ok := postJob(t, ts, "/run", Job{Workload: "fuzz:0x3"})
	if code != http.StatusOK || ok.Trap != "" || ok.Stats == nil {
		t.Fatalf("fuzz:0x3: code %d resp %+v", code, ok)
	}

	code, trap := postJob(t, ts, "/run", Job{Workload: "fuzz:0x7", HeapBytes: 4096})
	if code != http.StatusOK {
		t.Fatalf("trap cell: status %d", code)
	}
	if trap.Trap != "out-of-memory" || !strings.Contains(trap.Err, "out of memory") {
		t.Fatalf("trap cell: %+v", trap)
	}
	if trap.Stats != nil || trap.Checksum != "" {
		t.Error("trapped response carries success stats")
	}
}

// TestJobSpecRoundTrip pins that a Response's cell fields parse back into
// a Job naming the same cell.
func TestJobSpecRoundTrip(t *testing.T) {
	e := &executor{pool: newVMPool(0)}
	for _, jb := range []Job{
		{Workload: "db"},
		{Workload: "euler", Size: "small", Machine: "AthlonMP", Mode: "inter", GC: "freelist", HW: "ipstride"},
		{Workload: "fuzz:17", Mode: "baseline"},
	} {
		spec := jb.Spec().Canonical()
		resp := e.run(spec, spec.Key(), false)
		back := Job{
			Workload: resp.Workload, Size: resp.Size, Machine: resp.Machine,
			Mode: resp.Mode, GC: resp.GC, HW: resp.HW,
		}
		if verr := back.Validate(); verr != nil {
			t.Fatalf("response fields do not re-validate: %+v: %v", back, verr)
		}
		if back.Workload != jb.Workload {
			t.Errorf("round trip changed workload: %q vs %q", back.Workload, jb.Workload)
		}
	}
}
