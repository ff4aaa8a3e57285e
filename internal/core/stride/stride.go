// Package stride analyzes the address traces produced by object inspection
// and decides which loads (and which adjacent pairs of loads) exhibit
// stride patterns.
//
// Definitions (paper Sec. 1-2):
//
//   - a load has an inter-iteration stride pattern when the sequence of
//     addresses it accesses over iterations exhibits a (dominant) constant
//     stride;
//   - a pair of loads (Ly, Lz) has an intra-iteration stride pattern when
//     the stride A(Lz) - A(Ly) within one iteration is (dominantly)
//     constant across iterations.
//
// "If the majority (for example, over 75%) of the strides of a load or a
// pair of loads are the same, we recognize that they have stride patterns"
// (Sec. 3.2).
package stride

import "sort"

// Rec is one recorded load execution during object inspection.
type Rec struct {
	Iter int    // target-loop iteration number, starting at 0
	Addr uint32 // memory address accessed
}

// DefaultThreshold is the paper's 75% majority requirement.
const DefaultThreshold = 0.75

// Stat is the full outcome of a dominance analysis: the winning stride,
// the share of samples it covers, the sample count, and whether the
// pattern qualifies under the threshold (including the zero-stride
// rejections the detectors apply). The telemetry layer records Stats so a
// decision log can show *how close* a rejected candidate came.
type Stat struct {
	Stride  int64
	Ratio   float64 // share of samples the winning stride covers
	Samples int
	OK      bool
}

// Dominant returns the dominant value of a delta sequence and whether it
// accounts for at least threshold of the samples. Sequences shorter than 2
// have no pattern; a dominant delta of 0 (loop-invariant address) is
// reported as no pattern — invariant loads need no prefetching.
func Dominant(deltas []int64, threshold float64) (int64, bool) {
	s := dominantStat(deltas, threshold)
	if !s.OK || s.Stride == 0 {
		return 0, false
	}
	return s.Stride, true
}

// dominantStat counts a delta sequence and returns the winner with its
// coverage ratio; OK reflects only the threshold test (zero handling is
// the caller's policy).
func dominantStat(deltas []int64, threshold float64) Stat {
	if len(deltas) < 2 {
		return Stat{Samples: len(deltas)}
	}
	counts := map[int64]int{}
	best, bestN := int64(0), 0
	for _, d := range deltas {
		counts[d]++
		if counts[d] > bestN {
			best, bestN = d, counts[d]
		}
	}
	s := Stat{
		Stride:  best,
		Ratio:   float64(bestN) / float64(len(deltas)),
		Samples: len(deltas),
	}
	s.OK = float64(bestN) >= threshold*float64(len(deltas))
	return s
}

// Inter detects an inter-iteration stride for one load from its full trace
// (all executions in order). Using consecutive executions rather than
// per-iteration samples also captures loads in promoted nested loops, whose
// dominant stride is their inner-loop advance — matching how off-line
// stride profiling (Wu) sees the address stream.
func Inter(trace []Rec, threshold float64) (int64, bool) {
	s := InterStat(trace, threshold)
	if !s.OK {
		return 0, false
	}
	return s.Stride, true
}

// InterStat is Inter with the full dominance statistics: the winning
// stride and its coverage ratio even when the pattern is rejected.
func InterStat(trace []Rec, threshold float64) Stat {
	if len(trace) < 3 {
		return Stat{Samples: maxInt(len(trace)-1, 0)}
	}
	deltas := make([]int64, 0, len(trace)-1)
	for i := 1; i < len(trace); i++ {
		deltas = append(deltas, int64(trace[i].Addr)-int64(trace[i-1].Addr))
	}
	s := dominantStat(deltas, threshold)
	if s.Stride == 0 {
		s.OK = false // loop-invariant address: no prefetch needed
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// firstPerIter reduces a trace to the first execution per iteration,
// returning a map iteration -> address.
func firstPerIter(trace []Rec) map[int]uint32 {
	m := make(map[int]uint32, len(trace))
	for _, r := range trace {
		if _, seen := m[r.Iter]; !seen {
			m[r.Iter] = r.Addr
		}
	}
	return m
}

// Intra detects an intra-iteration stride for an adjacent pair (from, to).
// For each iteration where both executed, the sample is
// A(to) - A(from) using each load's first execution in that iteration; the
// pair has a pattern when a dominant non-zero sample covers at least
// threshold of the iterations (paper Sec. 2: "the sequence of the strides
// between them shows a pattern over iterations").
func Intra(from, to []Rec, threshold float64) (int64, bool) {
	s := IntraStat(from, to, threshold)
	if !s.OK {
		return 0, false
	}
	return s.Stride, true
}

// IntraStat is Intra with the full dominance statistics.
func IntraStat(from, to []Rec, threshold float64) Stat {
	fa := firstPerIter(from)
	ta := firstPerIter(to)
	// Walk iterations in order: the winning-stride tie-break (visible in
	// the decision log even for rejected candidates) must be
	// deterministic, not map-ordered.
	iters := make([]int, 0, len(fa))
	for iter := range fa {
		iters = append(iters, iter)
	}
	sort.Ints(iters)
	var samples []int64
	for _, iter := range iters {
		if b, ok := ta[iter]; ok {
			samples = append(samples, int64(b)-int64(fa[iter]))
		}
	}
	// The samples are already strides (not deltas of a sequence), so the
	// shared counting applies directly.
	s := dominantStat(samples, threshold)
	if s.Stride == 0 {
		// A dominant zero stride means both loads hit the same address —
		// and therefore the same cache line — every iteration; a prefetch
		// for the pair would duplicate the one already issued for `from`
		// (the Sec. 3.3 cache-line dedup filter).
		s.OK = false
	}
	return s
}
