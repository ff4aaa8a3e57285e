package flight

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoCachesValue: the first Do computes, later ones hit.
func TestDoCachesValue(t *testing.T) {
	var c Cache[string, int]
	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, fresh, err := c.Do("k", fn)
		if v != 42 || err != nil || fresh != (i == 0) {
			t.Fatalf("Do #%d = %d, fresh %v, %v", i, v, fresh, err)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	if st := c.Stats(); st != (Stats{Entries: 1, Hits: 2, Misses: 1}) {
		t.Errorf("stats %+v", st)
	}
}

// TestConcurrentDoJoins: concurrent requests for one key share one
// computation; every request sees its value.
func TestConcurrentDoJoins(t *testing.T) {
	var c Cache[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func() (int, error) {
		calls.Add(1)
		<-release
		return 7, nil
	}
	const n = 16
	var wg sync.WaitGroup
	got := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", fn)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	// Hold the computation until every request has claimed the key, so
	// all but the owner join it rather than hit the completed value.
	for c.Stats().Misses+c.Stats().Joins != n {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	for i, v := range got {
		if v != 7 {
			t.Errorf("request %d got %d", i, v)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Joins != n-1 || st.Hits != 0 {
		t.Errorf("stats %+v, want 1 miss and %d joins", st, n-1)
	}
}

// TestErrorNotCached: joiners share the owner's error, the key is
// dropped, and the next request computes afresh.
func TestErrorNotCached(t *testing.T) {
	var c Cache[string, int]
	boom := errors.New("boom")
	call, st := c.Claim("k")
	if st != Owner {
		t.Fatalf("first claim %v, want Owner", st)
	}
	joined, st := c.Claim("k")
	if st != Joined || joined != call {
		t.Fatalf("second claim %v, want Joined on the same call", st)
	}
	c.Finish("k", call, 0, boom)
	if _, err := joined.Wait(); err != boom {
		t.Errorf("joiner got %v, want the owner's error", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("an error stayed cached: %+v", st)
	}
	v, fresh, err := c.Do("k", func() (int, error) { return 3, nil })
	if v != 3 || !fresh || err != nil {
		t.Errorf("retry after error = %d, fresh %v, %v", v, fresh, err)
	}
}

// TestBoundEvictsOnlyCompleted: past Max, finishing a value evicts the
// oldest completed value, never a computation in flight.
func TestBoundEvictsOnlyCompleted(t *testing.T) {
	c := Cache[string, int]{Max: 2}
	inflight, _ := c.Claim("slow")
	for i, k := range []string{"a", "b", "c"} {
		if _, _, err := c.Do(k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// "slow" is in flight, so only completed values could go: finishing b
	// evicted a, finishing c evicted b.
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 2 {
		t.Errorf("stats %+v, want 2 entries (slow, c) and 2 evictions", st)
	}
	if _, s := c.Claim("c"); s != Hit {
		t.Errorf("newest value c: %v, want Hit", s)
	}
	if joined, s := c.Claim("slow"); s != Joined || joined != inflight {
		t.Errorf("in-flight computation evicted: %v", s)
	}
	c.Finish("slow", inflight, 9, nil)
	// c finished before slow, so it is now the oldest completed value.
	if _, _, err := c.Do("d", func() (int, error) { return 4, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 3 {
		t.Errorf("after d: %+v, want 2 entries (slow, d) and 3 evictions", st)
	}
	for _, k := range []string{"slow", "d"} {
		if _, s := c.Claim(k); s != Hit {
			t.Errorf("%s: %v, want Hit", k, s)
		}
	}
}
