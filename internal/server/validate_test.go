package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAPIValidation is the table-driven protocol suite: every malformed
// request class maps to a documented 4xx with a machine-readable Error
// body naming the offending field and the valid values.
func TestAPIValidation(t *testing.T) {
	srv := New(Config{Shards: 1, MaxBodyBytes: 256})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name      string
		method    string
		path      string
		body      string
		status    int
		field     string // expected Error.Field, "" = don't care
		wantValid string // a value that must appear in Error.Valid
		errSubstr string // substring of Error.Err
	}{
		{name: "malformed JSON", method: "POST", path: "/run",
			body: `{"workload":`, status: 400, errSubstr: "invalid JSON"},
		{name: "unknown JSON field", method: "POST", path: "/run",
			body: `{"workload":"jess","bogus":1}`, status: 400, errSubstr: "invalid JSON"},
		{name: "removed exec field", method: "POST", path: "/run",
			body: `{"workload":"jess","exec":"compiled"}`, status: 400, errSubstr: "invalid JSON"},
		{name: "missing workload", method: "POST", path: "/run",
			body: `{}`, status: 400, field: "workload", errSubstr: "missing workload"},
		{name: "unknown workload", method: "POST", path: "/run",
			body: `{"workload":"zork"}`, status: 400, field: "workload", wantValid: "jess"},
		{name: "bad fuzz seed", method: "POST", path: "/run",
			body: `{"workload":"fuzz:xyz"}`, status: 400, field: "workload", errSubstr: "bad fuzz seed"},
		{name: "unknown size", method: "POST", path: "/run",
			body: `{"workload":"jess","size":"huge"}`, status: 400, field: "size", wantValid: "full"},
		{name: "unknown machine", method: "POST", path: "/run",
			body: `{"workload":"jess","machine":"Itanium"}`, status: 400, field: "machine", wantValid: "Pentium4"},
		{name: "unknown mode", method: "POST", path: "/run",
			body: `{"workload":"jess","mode":"turbo"}`, status: 400, field: "mode", wantValid: "inter+intra"},
		{name: "unknown gc", method: "POST", path: "/run",
			body: `{"workload":"jess","gc":"generational"}`, status: 400, field: "gc", wantValid: "compact"},
		{name: "unknown hw model", method: "POST", path: "/run",
			body: `{"workload":"jess","hw":"oracle"}`, status: 400, field: "hw", wantValid: "stream"},
		{name: "unknown predict source", method: "POST", path: "/run",
			body: `{"workload":"jess","predict":"psychic"}`, status: 400, field: "predict", wantValid: "static"},
		{name: "negative warmups", method: "POST", path: "/run",
			body: `{"workload":"jess","warmups":-1}`, status: 400, field: "warmups", errSubstr: "negative warmups"},
		{name: "oversize body", method: "POST", path: "/run",
			body: `{"workload":"` + strings.Repeat("x", 512) + `"}`, status: 413, errSubstr: "exceeds"},
		{name: "GET /run", method: "GET", path: "/run",
			status: 405, errSubstr: "use POST"},
		{name: "DELETE /run", method: "DELETE", path: "/run",
			status: 405, errSubstr: "use POST"},
		{name: "POST /stats", method: "POST", path: "/stats",
			status: 405, errSubstr: "use GET"},
		{name: "POST /healthz", method: "POST", path: "/healthz",
			status: 405, errSubstr: "use GET"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if resp.StatusCode == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
				t.Error("405 without Allow header")
			}
			var e Error
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error body is not machine-readable JSON: %v", err)
			}
			if e.Err == "" {
				t.Error("empty error message")
			}
			if tc.field != "" && e.Field != tc.field {
				t.Errorf("error field %q, want %q (%+v)", e.Field, tc.field, e)
			}
			if tc.errSubstr != "" && !strings.Contains(e.Err, tc.errSubstr) {
				t.Errorf("error %q does not mention %q", e.Err, tc.errSubstr)
			}
			if tc.wantValid != "" {
				found := false
				for _, v := range e.Valid {
					if v == tc.wantValid {
						found = true
					}
				}
				if !found {
					t.Errorf("valid set %v does not list %q", e.Valid, tc.wantValid)
				}
			}
		})
	}

	// Rejections are visible in /stats and nothing was ever scheduled.
	st := srv.StatsSnapshot()
	if st.Rejected.Invalid != uint64(len(cases)) {
		t.Errorf("invalid-reject counter %d, want %d", st.Rejected.Invalid, len(cases))
	}
	if st.Accepted != 0 || st.Completed != 0 {
		t.Errorf("invalid requests reached the scheduler: %+v", st)
	}
}
