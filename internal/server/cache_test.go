package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestProfileCountersArePerServer: each server profiles on its own
// harness Engine, so a PGO job on server A shows in A's /stats profiles
// block and leaves server B's at zero.
func TestProfileCountersArePerServer(t *testing.T) {
	a, b := New(Config{Shards: 1}), New(Config{Shards: 1})
	defer a.Close()
	defer b.Close()
	tsA := httptest.NewServer(a)
	defer tsA.Close()

	jb := Job{Workload: "search", Predict: "pgo"}
	if code, resp := postJob(t, tsA, "/run", jb); code != http.StatusOK || resp.Stats == nil {
		t.Fatalf("pgo job on A: status %d, %+v", code, resp)
	}
	if got := a.StatsSnapshot().Profiles; got != (ProfileStats{Misses: 1}) {
		t.Errorf("server A profiles %+v, want one miss", got)
	}
	if got := b.StatsSnapshot().Profiles; got != (ProfileStats{}) {
		t.Errorf("server B profiles %+v, want {0,0}: A's profiling leaked into B", got)
	}
}

// TestFuzzPGOUsesProfileCache: a fuzz:<seed> PGO cell builds its profile
// once, through the engine's profile cache. With VM pooling off, the
// second nocache submit builds a fresh VM and must reuse the profile.
func TestFuzzPGOUsesProfileCache(t *testing.T) {
	srv := New(Config{Shards: 1, PoolKeys: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jb := Job{Workload: "fuzz:0x3", Predict: "pgo"}
	var first Response
	for i := 0; i < 2; i++ {
		code, resp := postJob(t, ts, "/run?nocache=1", jb)
		if code != http.StatusOK || resp.Stats == nil || resp.Pooled {
			t.Fatalf("submit %d: status %d, %+v", i, code, resp)
		}
		if i == 0 {
			first = resp
		} else if !sameDeterministic(resp, first) {
			t.Errorf("profile-cache replay differs from the first run:\n%+v\nvs\n%+v", resp, first)
		}
	}
	if got := srv.StatsSnapshot().Profiles; got.Misses != 1 || got.Hits != 1 {
		t.Errorf("profiles %+v, want one miss then one hit", got)
	}
}

// TestCacheEviction: the result cache holds at most CacheEntries cells in
// total; past that the oldest completed cell is evicted and a request for
// it executes again.
func TestCacheEviction(t *testing.T) {
	srv := New(Config{Shards: 1, CacheEntries: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cells := []Job{{Workload: "fuzz:0x1"}, {Workload: "fuzz:0x2"}, {Workload: "fuzz:0x3"}}
	for _, jb := range cells {
		if code, resp := postJob(t, ts, "/run", jb); code != http.StatusOK || resp.Cached {
			t.Fatalf("%s: status %d cached %v", jb.Workload, code, resp.Cached)
		}
	}
	st := srv.StatsSnapshot().Cache
	if st.Entries > 2 || st.Evictions != 1 {
		t.Errorf("cache %+v, want at most 2 entries and 1 eviction", st)
	}
	if _, resp := postJob(t, ts, "/run", cells[2]); !resp.Cached {
		t.Error("the newest cell was not served from the cache")
	}
	if _, resp := postJob(t, ts, "/run", cells[0]); resp.Cached {
		t.Error("the evicted cell was served from the cache")
	}
	if st := srv.StatsSnapshot(); st.Completed != 4 {
		t.Errorf("completed %d, want 4: the evicted cell must execute again", st.Completed)
	}
}
