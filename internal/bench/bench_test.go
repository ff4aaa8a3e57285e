package bench

import (
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeEntry returns an entry whose iteration is instantaneous and whose
// Work signature is fixed.
func fakeEntry(name string, w Work) Entry {
	return Entry{Name: name, Make: func() (func() (Work, error), error) {
		return func() (Work, error) { return w, nil }, nil
	}}
}

func fastOpts() Options {
	return Options{MinIters: 2, MinTime: time.Nanosecond}
}

func TestRunSuiteOrderAndWork(t *testing.T) {
	entries := []Entry{
		fakeEntry("b", Work{Cycles: 2}),
		fakeEntry("a", Work{Cycles: 1}),
		fakeEntry("c", Work{Cycles: 3}),
	}
	r, err := RunSuite(entries, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range r.Entries {
		names = append(names, m.Name)
	}
	if got, want := strings.Join(names, ","), "b,a,c"; got != want {
		t.Errorf("entry order = %s, want %s (suite order, not sorted)", got, want)
	}
	if r.Entries[0].Work.Cycles != 2 || r.Entries[2].Work.Cycles != 3 {
		t.Error("work signatures misattributed")
	}
	if r.Schema != Schema {
		t.Errorf("schema = %d, want %d", r.Schema, Schema)
	}
}

func TestRunSuiteFilter(t *testing.T) {
	entries := []Entry{fakeEntry("vm/x", Work{}), fakeEntry("oracle/y", Work{})}
	opts := fastOpts()
	opts.Filter = func(name string) bool { return strings.HasPrefix(name, "vm/") }
	r, err := RunSuite(entries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 1 || r.Entries[0].Name != "vm/x" {
		t.Errorf("filter selected %v", r.Entries)
	}
}

// TestRunSuiteNondeterministicWorkFails asserts the runner's built-in
// drift check: an entry whose Work changes between iterations is an error,
// not a report.
func TestRunSuiteNondeterministicWorkFails(t *testing.T) {
	var n atomic.Uint64
	drifting := Entry{Name: "drift", Make: func() (func() (Work, error), error) {
		return func() (Work, error) { return Work{Cycles: n.Add(1)}, nil }, nil
	}}
	_, err := RunSuite([]Entry{drifting}, fastOpts())
	if err == nil || !strings.Contains(err.Error(), "nondeterministic work") {
		t.Errorf("want nondeterministic-work error, got %v", err)
	}
}

func TestRunSuiteSetupAndIterationErrors(t *testing.T) {
	boom := errors.New("boom")
	setupFail := Entry{Name: "s", Make: func() (func() (Work, error), error) { return nil, boom }}
	if _, err := RunSuite([]Entry{setupFail}, fastOpts()); !errors.Is(err, boom) {
		t.Errorf("setup error not surfaced: %v", err)
	}
	iterFail := Entry{Name: "i", Make: func() (func() (Work, error), error) {
		return func() (Work, error) { return Work{}, boom }, nil
	}}
	if _, err := RunSuite([]Entry{iterFail}, fastOpts()); !errors.Is(err, boom) {
		t.Errorf("iteration error not surfaced: %v", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r, err := RunSuite([]Entry{fakeEntry("x", Work{Checksum: 7})}, Options{
		MinIters: 1, MinTime: time.Nanosecond, GitSHA: "abc123", Timestamp: "2026-08-06T00:00:00Z",
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GitSHA != "abc123" || got.Timestamp != "2026-08-06T00:00:00Z" {
		t.Errorf("metadata lost in round trip: %+v", got)
	}
	if m := got.ByName()["x"]; m.Work.Checksum != 7 {
		t.Errorf("work lost in round trip: %+v", m)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	r := &Report{Schema: Schema + 1}
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("want schema error, got %v", err)
	}
}

// report builds a one-entry report for diff tests.
func report(name string, ns, allocs float64) *Report {
	return &Report{Schema: Schema, Entries: []Measurement{
		{Name: name, Iters: 1, NsPerOp: ns, AllocsPerOp: allocs},
	}}
}

// TestDiffSyntheticRegression is the gate's own acceptance test: a
// synthetic ns/op regression beyond the threshold must fail, one inside
// the threshold must pass.
func TestDiffSyntheticRegression(t *testing.T) {
	base := report("vm/x", 1000, 10)

	over := Diff(base, report("vm/x", 1200, 10), DiffOptions{NsThresholdPct: 10})
	if len(Regressions(over)) != 1 {
		t.Errorf("+20%% ns/op with 10%% threshold: regressions = %v", Regressions(over))
	}
	under := Diff(base, report("vm/x", 1050, 10), DiffOptions{NsThresholdPct: 10})
	if len(Regressions(under)) != 0 {
		t.Errorf("+5%% ns/op with 10%% threshold: regressions = %v", Regressions(under))
	}
	improved := Diff(base, report("vm/x", 500, 0), DiffOptions{NsThresholdPct: 10})
	if len(Regressions(improved)) != 0 {
		t.Errorf("improvement flagged as regression: %v", Regressions(improved))
	}
}

func TestDiffAllocGrowthGatedAtZero(t *testing.T) {
	base := report("vm/x", 1000, 10)
	grown := Diff(base, report("vm/x", 1000, 12), DiffOptions{})
	if len(Regressions(grown)) != 1 {
		t.Errorf("alloc growth not gated: %v", Regressions(grown))
	}
	waived := Diff(base, report("vm/x", 1000, 12), DiffOptions{AllowAllocGrowth: true})
	if len(Regressions(waived)) != 0 {
		t.Errorf("alloc waiver ignored: %v", Regressions(waived))
	}
	// Sub-half-alloc drift is amortized-setup noise, not a regression.
	noise := Diff(base, report("vm/x", 1000, 10.3), DiffOptions{})
	if len(Regressions(noise)) != 0 {
		t.Errorf("fractional alloc noise flagged: %v", Regressions(noise))
	}
	// On alloc-heavy entries the slack is relative (0.5%): runtime
	// background allocations scale with op duration, so fractional drift
	// grows with the baseline while a real leak still adds whole allocs.
	heavy := report("vm/x", 1000, 1000)
	if fs := Regressions(Diff(heavy, report("vm/x", 1000, 1004), DiffOptions{})); len(fs) != 0 {
		t.Errorf("sub-percent alloc drift flagged on heavy entry: %v", fs)
	}
	if fs := Regressions(Diff(heavy, report("vm/x", 1000, 1006), DiffOptions{})); len(fs) != 1 {
		t.Errorf("alloc growth beyond relative slack not gated: %v", fs)
	}
}

// TestDiffBytesInformational pins that bytes/op appears in the diff in
// both directions and never fails the gate.
func TestDiffBytesInformational(t *testing.T) {
	base := report("vm/x", 1000, 10)
	base.Entries[0].BytesPerOp = 1 << 20
	for _, bytes := range []float64{4 << 20, 1 << 19} {
		cur := report("vm/x", 1000, 10)
		cur.Entries[0].BytesPerOp = bytes
		fs := Diff(base, cur, DiffOptions{})
		if regs := Regressions(fs); len(regs) != 0 {
			t.Errorf("bytes/op %v gated: %v", bytes, regs)
		}
		var row *Finding
		for i := range fs {
			if fs[i].Metric == "bytes/op" {
				row = &fs[i]
			}
		}
		if row == nil || row.Old != 1<<20 || row.New != bytes {
			t.Fatalf("bytes/op row missing or wrong: %+v", row)
		}
		if !strings.Contains(FormatDiff(fs), "bytes/op") {
			t.Errorf("formatted diff lacks the bytes/op row:\n%s", FormatDiff(fs))
		}
	}
}

func TestDiffMissingAndNewEntries(t *testing.T) {
	base := &Report{Schema: Schema, Entries: []Measurement{
		{Name: "vm/x", NsPerOp: 1000},
		{Name: "vm/y", NsPerOp: 1000},
	}}
	cur := &Report{Schema: Schema, Entries: []Measurement{
		{Name: "vm/x", NsPerOp: 1000},
		{Name: "vm/z", NsPerOp: 1000},
	}}
	fs := Diff(base, cur, DiffOptions{})
	regs := Regressions(fs)
	if len(regs) != 1 || regs[0].Name != "vm/y" || regs[0].Metric != "presence" {
		t.Errorf("missing entry not flagged: %v", regs)
	}
	var sawNew bool
	for _, f := range fs {
		if f.Name == "vm/z" && f.Metric == "presence" && !f.Regression {
			sawNew = true
		}
	}
	if !sawNew {
		t.Error("new entry should appear as informational, not regression")
	}
	out := FormatDiff(fs)
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("formatted diff lacks regression marker:\n%s", out)
	}
}

// TestSuiteSerialParallelDeterminism runs the real pinned suite twice —
// serial and with a wide worker pool — and asserts every entry's Work
// signature is identical: runner parallelism must not leak into simulated
// results (per-entry VMs share no state, and the harness-backed entries
// dedup through the singleflight layer without changing outcomes).
func TestSuiteSerialParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pinned suite twice")
	}
	opts := Options{MinIters: 1, MinTime: time.Nanosecond}
	serial, err := RunSuite(Suite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 4
	parallel, err := RunSuite(Suite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(parallel.Entries), len(serial.Entries); got != want {
		t.Fatalf("parallel entries = %d, serial = %d", got, want)
	}
	pb := parallel.ByName()
	for _, s := range serial.Entries {
		p, ok := pb[s.Name]
		if !ok {
			t.Errorf("%s missing from parallel run", s.Name)
			continue
		}
		if p.Work != s.Work {
			t.Errorf("%s: parallel work %+v != serial work %+v", s.Name, p.Work, s.Work)
		}
	}
	for i := range serial.Entries {
		if parallel.Entries[i].Name != serial.Entries[i].Name {
			t.Errorf("entry %d order differs: %s vs %s", i, parallel.Entries[i].Name, serial.Entries[i].Name)
		}
	}
}
