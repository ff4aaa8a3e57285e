package server

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"strider/internal/harness"
	"strider/internal/workloads"
)

// fullCellSet is the complete experiment grid in job vocabulary: every
// registered workload on both machines under all three software modes,
// small size.
func fullCellSet() []Job {
	var jobs []Job
	for _, w := range workloads.Names() {
		for _, machine := range []string{"Pentium4", "AthlonMP"} {
			for _, mode := range []string{"baseline", "inter", "inter+intra"} {
				jobs = append(jobs, Job{Workload: w, Size: "small", Machine: machine, Mode: mode})
			}
		}
	}
	return jobs
}

// TestServiceMatchesSerialHarness is the end-to-end determinism pin: the
// full experiment cell set submitted to a running service concurrently —
// twice, once cacheable and once with ?nocache=1 to force the pooled
// execution path — must reproduce a serial harness grid byte-for-byte.
func TestServiceMatchesSerialHarness(t *testing.T) {
	jobs := fullCellSet()

	// Serial ground truth: one worker, fresh engine.
	specs := make([]harness.Spec, len(jobs))
	for i, jb := range jobs {
		specs[i] = jb.Spec()
	}
	serial := harness.Grid{Specs: specs, Engine: new(harness.Engine), Parallel: 1}.Run()
	want := make(map[string]harness.Result, len(serial))
	for _, r := range serial {
		if r.Err != nil {
			t.Fatalf("serial cell %s failed: %v", r.Spec.Key(), r.Err)
		}
		want[r.Spec.Key()] = r
	}

	srv := New(Config{Shards: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{"/run", "/run?nocache=1"} {
		var wg sync.WaitGroup
		errs := make(chan error, len(jobs))
		for _, jb := range jobs {
			wg.Add(1)
			go func(jb Job) {
				defer wg.Done()
				code, resp := postJob(t, ts, path, jb)
				if code != 200 {
					errs <- fmt.Errorf("%s %v: status %d", path, jb, code)
					return
				}
				w, ok := want[resp.Key]
				if !ok {
					errs <- fmt.Errorf("%s %v: response key %q not in serial grid", path, jb, resp.Key)
					return
				}
				if resp.Stats == nil {
					errs <- fmt.Errorf("%s %v: no stats: %+v", path, jb, resp)
					return
				}
				if *resp.Stats != w.Stats {
					errs <- fmt.Errorf("%s %v: stats diverge from serial harness:\n%+v\nvs\n%+v",
						path, jb, *resp.Stats, w.Stats)
					return
				}
				if resp.Checksum != fmt.Sprintf("%016x", w.Stats.Checksum) {
					errs <- fmt.Errorf("%s %v: checksum %s vs %016x", path, jb, resp.Checksum, w.Stats.Checksum)
				}
			}(jb)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if t.Failed() {
			break
		}
	}

	st := srv.StatsSnapshot()
	if st.InFlight != 0 {
		t.Errorf("in-flight not zero after quiescence: %+v", st)
	}
	if st.Accepted != st.Completed {
		t.Errorf("accepted %d != completed %d", st.Accepted, st.Completed)
	}
}
