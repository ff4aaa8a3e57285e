package static

import (
	"strider/internal/core/ldg"
	"strider/internal/telemetry"
)

// PGOSource is the telemetry marker stamped on profile-replayed events.
const PGOSource = "pgo"

// NodeRecord is one LDG node's recorded inter-iteration annotation. Inter
// is the dominant stride of the inspected trace whether or not it
// qualified (HasInter carries the verdict), so a replay reproduces the
// rejected candidates' diagnostics too.
type NodeRecord struct {
	Instr    int
	HasInter bool
	Inter    int64
	Ratio    float64
	Samples  int
}

// EdgeRecord is one LDG edge's recorded intra-iteration annotation.
type EdgeRecord struct {
	From     int
	To       int
	HasIntra bool
	Intra    int64
	Ratio    float64
	Samples  int
}

// LoopProfile is one loop's recorded inspection outcome: the verdict, the
// observed trip behaviour, and (for accepted loops) the full stride
// annotations of its load dependence graph.
type LoopProfile struct {
	Verdict     telemetry.Reason
	Trips       int
	NaturalExit bool
	Nodes       []NodeRecord
	Edges       []EdgeRecord
}

// Profile is the PGO store: one dynamic run's per-loop inspection results,
// keyed by method qualified name and loop header block. A Profile is
// written by a single profiling run and read-only afterwards, so any
// number of PGO compilations may share it concurrently.
type Profile struct {
	methods map[string]map[int]*LoopProfile
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{methods: map[string]map[int]*LoopProfile{}}
}

// Record stores one loop's outcome (last write wins; each loop is
// recorded once per compilation).
func (p *Profile) Record(method string, header int, lp *LoopProfile) {
	loops, ok := p.methods[method]
	if !ok {
		loops = map[int]*LoopProfile{}
		p.methods[method] = loops
	}
	loops[header] = lp
}

// Loop returns the recorded outcome for a loop, or nil when the profile
// has no entry (including on a nil Profile — a missing profile is all
// misses).
func (p *Profile) Loop(method string, header int) *LoopProfile {
	if p == nil {
		return nil
	}
	return p.methods[method][header]
}

// Len returns the number of recorded loops.
func (p *Profile) Len() int {
	n := 0
	for _, loops := range p.methods {
		n += len(loops)
	}
	return n
}

// RecordLoop captures an annotated graph (plus its inspection verdict) as
// a loop profile. The Raw strides are recorded so rejected candidates
// replay with their diagnostics intact.
func RecordLoop(lg *ldg.Graph, verdict telemetry.Reason, trips int, naturalExit bool) *LoopProfile {
	lp := &LoopProfile{Verdict: verdict, Trips: trips, NaturalExit: naturalExit}
	for _, n := range lg.Nodes {
		lp.Nodes = append(lp.Nodes, NodeRecord{
			Instr: n.Instr, HasInter: n.HasInter, Inter: n.RawInter,
			Ratio: n.InterRatio, Samples: n.InterSamples,
		})
	}
	for _, n := range lg.Nodes {
		for _, e := range n.Succs {
			lp.Edges = append(lp.Edges, EdgeRecord{
				From: e.From.Instr, To: e.To.Instr, HasIntra: e.HasIntra,
				Intra: e.RawIntra, Ratio: e.IntraRatio, Samples: e.IntraSamples,
			})
		}
	}
	return lp
}

// Apply writes a recorded loop's annotations back onto a freshly built
// graph and replays the rejected candidates' FILTER_NO_PATTERN decisions
// (marked with the pgo source), in the dynamic annotator's order. It
// returns false — and leaves the graph untouched — when the graph's
// structure no longer matches the record; the caller treats that as a
// profile miss and falls back to dynamic inspection.
func Apply(lg *ldg.Graph, lp *LoopProfile, rec telemetry.Recorder) bool {
	if lp == nil || lp.Verdict != telemetry.LoopAccepted || len(lp.Nodes) != len(lg.Nodes) {
		return false
	}
	edges := 0
	for _, n := range lg.Nodes {
		edges += len(n.Succs)
	}
	if edges != len(lp.Edges) {
		return false
	}
	nodeRec := make(map[int]NodeRecord, len(lp.Nodes))
	for _, r := range lp.Nodes {
		nodeRec[r.Instr] = r
	}
	type pair struct{ from, to int }
	edgeRec := make(map[pair]EdgeRecord, len(lp.Edges))
	for _, r := range lp.Edges {
		edgeRec[pair{r.From, r.To}] = r
	}
	for _, n := range lg.Nodes {
		if _, ok := nodeRec[n.Instr]; !ok {
			return false
		}
		for _, e := range n.Succs {
			if _, ok := edgeRec[pair{e.From.Instr, e.To.Instr}]; !ok {
				return false
			}
		}
	}

	qname := lg.Method.QName()
	noPattern := func(instr, pair, samples int, stride int64, ratio float64, op string) {
		if rec == nil {
			return
		}
		rec.Decision(telemetry.DecisionEvent{
			Method: qname, Loop: lg.Loop.Header, Instr: instr, Pair: pair,
			Op: op, Stride: stride, Ratio: ratio, Samples: samples,
			Reason: telemetry.FilterNoPattern, Src: PGOSource,
		})
	}
	for _, n := range lg.Nodes {
		r := nodeRec[n.Instr]
		n.HasInter, n.RawInter = r.HasInter, r.Inter
		n.InterRatio, n.InterSamples = r.Ratio, r.Samples
		n.Inter = 0
		if r.HasInter {
			n.Inter = r.Inter
		} else {
			noPattern(n.Instr, -1, r.Samples, r.Inter, r.Ratio, n.Op.String())
		}
	}
	for _, n := range lg.Nodes {
		for _, e := range n.Succs {
			r := edgeRec[pair{e.From.Instr, e.To.Instr}]
			e.HasIntra, e.RawIntra = r.HasIntra, r.Intra
			e.IntraRatio, e.IntraSamples = r.Ratio, r.Samples
			e.Intra = 0
			if r.HasIntra {
				e.Intra = r.Intra
			} else {
				noPattern(e.From.Instr, e.To.Instr, r.Samples, r.Intra, r.Ratio, e.To.Op.String())
			}
		}
	}
	return true
}
