package bench

import (
	"fmt"
	"strings"
)

// Finding is one entry-level comparison outcome of Diff.
type Finding struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"` // "ns/op", "allocs/op", "bytes/op", or "presence"
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// DeltaPct is the relative change in percent (positive = worse).
	DeltaPct float64 `json:"delta_pct"`
	// Regression marks findings that should fail a gated comparison.
	Regression bool   `json:"regression"`
	Note       string `json:"note,omitempty"`
}

// DiffOptions configures the regression gate.
type DiffOptions struct {
	// NsThresholdPct fails ns/op growth beyond this percentage (default 10).
	NsThresholdPct float64
	// AllowAllocGrowth disables the (default) hard gate on any increase of
	// allocs/op. Wall-clock time is noisy; allocation counts are exact, so
	// they are gated at zero tolerance unless explicitly waived.
	AllowAllocGrowth bool
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.NsThresholdPct <= 0 {
		o.NsThresholdPct = 10
	}
	return o
}

// Diff compares a new report against a baseline and returns per-entry
// findings, ordered by the baseline's entry order (new-only entries last).
// A finding with Regression set means the gate should fail.
func Diff(base, cur *Report, opts DiffOptions) []Finding {
	opts = opts.withDefaults()
	curBy := cur.ByName()
	var out []Finding

	for _, b := range base.Entries {
		c, ok := curBy[b.Name]
		if !ok {
			out = append(out, Finding{
				Name: b.Name, Metric: "presence", Old: 1, New: 0,
				Regression: true,
				Note:       "entry missing from new report (pinned suite must not shrink)",
			})
			continue
		}
		delete(curBy, b.Name)

		if b.NsPerOp > 0 {
			d := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
			out = append(out, Finding{
				Name: b.Name, Metric: "ns/op", Old: b.NsPerOp, New: c.NsPerOp,
				DeltaPct:   d,
				Regression: d > opts.NsThresholdPct,
			})
		}
		allocDelta := 0.0
		if b.AllocsPerOp > 0 {
			allocDelta = 100 * (c.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp
		} else if c.AllocsPerOp > 0 {
			allocDelta = 100
		}
		out = append(out, Finding{
			Name: b.Name, Metric: "allocs/op", Old: b.AllocsPerOp, New: c.AllocsPerOp,
			DeltaPct: allocDelta,
			// Allocation counts include setup amortized over iterations and
			// the runtime's own background activity (linking net into the
			// binary adds sub-percent per-GC-cycle allocations that scale
			// with op duration), so growth below half an alloc per op — or
			// below half a percent on alloc-heavy entries — is measurement
			// noise, not a new allocation in the loop. Any real leak adds at
			// least one alloc per op and clears both bars.
			Regression: !opts.AllowAllocGrowth &&
				c.AllocsPerOp > b.AllocsPerOp+allocSlack(b.AllocsPerOp),
		})
		// Bytes/op shows footprint changes in the report; it is never
		// gated (allocs/op already catches a new allocation in the loop).
		if b.BytesPerOp > 0 {
			out = append(out, Finding{
				Name: b.Name, Metric: "bytes/op", Old: b.BytesPerOp, New: c.BytesPerOp,
				DeltaPct: 100 * (c.BytesPerOp - b.BytesPerOp) / b.BytesPerOp,
			})
		}
	}
	for _, c := range cur.Entries {
		if _, stillNew := curBy[c.Name]; stillNew {
			out = append(out, Finding{
				Name: c.Name, Metric: "presence", Old: 0, New: 1,
				Note: "new entry (no baseline; informational)",
			})
		}
	}
	return out
}

// allocSlack is the tolerated allocs/op growth: half an alloc, or half a
// percent of the baseline, whichever is larger.
func allocSlack(base float64) float64 {
	if rel := base * 0.005; rel > 0.5 {
		return rel
	}
	return 0.5
}

// Regressions filters findings down to gate failures.
func Regressions(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Regression {
			out = append(out, f)
		}
	}
	return out
}

// FormatDiff renders the comparison as an aligned text table.
func FormatDiff(fs []Finding) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %-10s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	for _, f := range fs {
		mark := ""
		if f.Regression {
			mark = "  << REGRESSION"
		}
		switch f.Metric {
		case "presence":
			fmt.Fprintf(&sb, "%-34s %-10s %14s %14s %9s%s\n",
				f.Name, f.Metric, presence(f.Old), presence(f.New), "", mark)
		default:
			fmt.Fprintf(&sb, "%-34s %-10s %14.1f %14.1f %+8.2f%%%s\n",
				f.Name, f.Metric, f.Old, f.New, f.DeltaPct, mark)
		}
		if f.Note != "" {
			fmt.Fprintf(&sb, "    (%s)\n", f.Note)
		}
	}
	return sb.String()
}

func presence(v float64) string {
	if v > 0 {
		return "present"
	}
	return "absent"
}
