package server

import (
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
)

// pgoCells picks cells with real prefetch activity on both machines —
// loops the dynamic inspector accepts, so a PGO replay has decisions to
// reproduce — plus one quiet cell (no emits) as a control.
func pgoCells() []Job {
	return []Job{
		{Workload: "jess", Machine: "Pentium4"},
		{Workload: "db", Machine: "Pentium4"},
		{Workload: "euler", Machine: "AthlonMP"},
		{Workload: "mtrt", Machine: "AthlonMP"},
		{Workload: "compress", Machine: "Pentium4"}, // control: zero emits
	}
}

// TestPGOHammerMatchesDynamic is the profile-cache workout under the race
// detector: the PGO profile cache is warmed once per cell, then many
// goroutines hammer the service with PGO jobs on both serving paths
// (cached and ?nocache=1) while a /stats poller runs concurrently. Every
// PGO response must reproduce the architectural outcome of a nocache
// dynamic run of the same cell — checksum, cycles, instructions, and
// prefetch statistics; the accounting fields (inspection steps, JIT
// units) legitimately differ, which is the point of profile reuse — and
// /stats must report the warmup as profile misses and everything after
// as hits.
func TestPGOHammerMatchesDynamic(t *testing.T) {
	jobs := pgoCells()

	srv := New(Config{Shards: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Dynamic ground truth, forced down the execution path (no result
	// cache) so the comparison is simulation against simulation.
	type truth struct{ resp Response }
	dynamic := make(map[string]truth, len(jobs))
	for _, jb := range jobs {
		code, resp := postJob(t, ts, "/run?nocache=1", jb)
		if code != 200 || resp.Stats == nil {
			t.Fatalf("dynamic %s/%s: status %d, %+v", jb.Workload, jb.Machine, code, resp)
		}
		dynamic[jb.Workload+"/"+jb.Machine] = truth{resp}
	}

	// Warm the profile cache: exactly one dynamic profiling run per cell.
	engine := srv.exec.engine
	before := engine.Counters()
	for _, jb := range jobs {
		pj := jb
		pj.Predict = "pgo"
		if _, err := engine.ProfileFor(pj.Spec()); err != nil {
			t.Fatalf("warm %s/%s: %v", jb.Workload, jb.Machine, err)
		}
	}
	warmed := engine.Counters()
	if got := warmed.ProfileMisses - before.ProfileMisses; got != uint64(len(jobs)) {
		t.Fatalf("warmup built %d profiles, want %d", got, len(jobs))
	}

	// The hammer: every goroutine drives the full cell set through both
	// serving paths; each response is checked on the spot.
	const goroutines = 8
	var (
		submitters sync.WaitGroup
		poller     sync.WaitGroup
	)
	errs := make(chan error, goroutines*2*len(jobs))
	stop := make(chan struct{})

	poller.Add(1)
	go func() { // concurrent /stats poller: must never race with workers
		defer poller.Done()
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

	for g := 0; g < goroutines; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			for i, jb := range jobs {
				path := "/run"
				if (g+i)%2 == 1 {
					path = "/run?nocache=1"
				}
				pj := jb
				pj.Predict = "pgo"
				code, resp := postJob(t, ts, path, pj)
				if code != 200 || resp.Stats == nil {
					errs <- fmt.Errorf("pgo %s %s/%s: status %d, %+v", path, jb.Workload, jb.Machine, code, resp)
					continue
				}
				if resp.Predict != "pgo" {
					errs <- fmt.Errorf("%s/%s: response predict %q, want pgo", jb.Workload, jb.Machine, resp.Predict)
				}
				dyn := dynamic[jb.Workload+"/"+jb.Machine].resp
				if resp.Key == dyn.Key {
					errs <- fmt.Errorf("%s/%s: pgo cell key %q collides with the dynamic cell", jb.Workload, jb.Machine, resp.Key)
				}
				// The architectural contract: profile replay is invisible to
				// the simulated machine.
				ds, ps := dyn.Stats, resp.Stats
				if resp.Checksum != dyn.Checksum {
					errs <- fmt.Errorf("%s/%s: checksum %s, dynamic %s", jb.Workload, jb.Machine, resp.Checksum, dyn.Checksum)
				}
				if ps.Cycles != ds.Cycles || ps.Instructions != ds.Instructions || ps.Prefetch != ds.Prefetch {
					errs <- fmt.Errorf("%s/%s: pgo run diverged from dynamic:\ncycles %d vs %d\ninstructions %d vs %d\nprefetch %+v vs %+v",
						jb.Workload, jb.Machine, ps.Cycles, ds.Cycles,
						ps.Instructions, ds.Instructions, ps.Prefetch, ds.Prefetch)
				}
				// Profile reuse must actually skip re-inspection.
				if ps.InspectSteps != 0 {
					errs <- fmt.Errorf("%s/%s: pgo run inspected %d steps; profile replay must skip inspection",
						jb.Workload, jb.Machine, ps.InspectSteps)
				}
			}
		}(g)
	}
	submitters.Wait()
	close(stop)
	poller.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	after := engine.Counters()
	if after.ProfileMisses != warmed.ProfileMisses {
		t.Errorf("hammer re-profiled %d cells; the warmed cache must serve every PGO job",
			after.ProfileMisses-warmed.ProfileMisses)
	}
	if after.ProfileHits == warmed.ProfileHits {
		t.Error("hammer recorded no profile hits")
	}
	st := srv.StatsSnapshot()
	if st.Profiles.Misses != after.ProfileMisses || st.Profiles.Hits != after.ProfileHits {
		t.Errorf("/stats profiles %+v out of step with engine counters hits=%d misses=%d",
			st.Profiles, after.ProfileHits, after.ProfileMisses)
	}
	if st.Accepted != st.Completed {
		t.Errorf("accepted %d != completed %d", st.Accepted, st.Completed)
	}
}
