// Hardware-prefetcher zoo. Both evaluation machines "provide ... software
// and hardware prefetching mechanisms" (Sec. 4), and the profitability
// analysis exists because "prefetching for such a load instruction will
// not be profitable, especially on processors with hardware prefetching"
// (Sec. 3.3) — so whether dynamic object inspection still wins depends on
// how strong the hardware unit is. This file makes the hardware unit a
// pluggable axis: every model trains on the demand-miss/prefetch reference
// stream through one interface and issues fills into the L2 through a
// narrow port, and none of them may cross a page boundary or follow a
// pointer — the limits the paper's software approach exists to beat.
package memsim

import "fmt"

// HWStats counts what one hardware prefetcher did during a run. The
// counters obey (and CheckInvariants asserts): Hits <= Trains,
// Allocs <= Trains, and Issued+Suppressed <= maxHWDegree*Trains.
type HWStats struct {
	// Trains counts Train calls (demand L1 misses plus software-prefetch
	// references — the reference stream the unit observes).
	Trains uint64
	// Allocs counts new table/tracker entries allocated for previously
	// untracked streams.
	Allocs uint64
	// Hits counts trains whose observed delta matched the predicted one.
	Hits uint64
	// Issued counts prefetch fills actually installed into the L2.
	Issued uint64
	// Suppressed counts predicted prefetches withheld because the target
	// crossed a page boundary or was already present in the L2.
	Suppressed uint64
}

// maxHWDegree bounds how many prefetches any model may issue per train
// (the multi-stride model issues up to one period, capped at 4 lines).
const maxHWDegree = 4

// HWPort is the narrow window a hardware prefetcher gets into the memory
// system: probe and fill the L2, and read the machine's line and page
// geometry. Memory implements it; FillL2 accounts the fill in the run's
// HWPrefetches counter.
type HWPort interface {
	// ProbeL2 reports whether addr's line is already present in the L2
	// (without touching LRU state).
	ProbeL2(addr uint64) bool
	// FillL2 installs addr's line into the L2 with a full memory-latency
	// arrival time and counts it as a hardware prefetch.
	FillL2(addr uint64, now uint64)
	// LineShift is log2 of the L2 line size (the training granule).
	LineShift() uint
	// PageShift is log2 of the machine's DTLB page size (the boundary no
	// hardware prefetcher may cross).
	PageShift() uint
}

// HWPrefetcher is one pluggable hardware prefetch unit. Train observes one
// reference (a demand L1 miss or a software prefetch) and may issue fills
// through the port; pc is the load-site identifier for pc-indexed models
// (0 when the reference has no stable site, e.g. software prefetches —
// pc-indexed models must not corrupt their tables on it). Reset returns
// the unit to its just-constructed state, statistics included, so a reset
// Memory is bit-identical to a fresh one.
type HWPrefetcher interface {
	Name() string
	Train(addr uint64, pc uint64, now uint64)
	Reset()
	Stats() HWStats
}

// DefaultHWModel is the model used when a machine does not name one: the
// per-page stream detector the simulator has always had.
const DefaultHWModel = "stream"

// hwModels lists the zoo in documentation order.
var hwModels = []string{"none", "nextline", "stream", "ipstride", "tracker", "multistride"}

// HWModels returns the names of every available hardware-prefetcher model.
func HWModels() []string {
	out := make([]string, len(hwModels))
	copy(out, hwModels)
	return out
}

// ValidHWModel reports whether name selects a model ("" selects the
// default).
func ValidHWModel(name string) bool {
	if name == "" {
		return true
	}
	for _, m := range hwModels {
		if m == name {
			return true
		}
	}
	return false
}

// newHWPrefetcher constructs the named model over a port. Callers validate
// names at the flag/spec boundary; an unknown name here is a programming
// error.
func newHWPrefetcher(name string, port HWPort) HWPrefetcher {
	switch name {
	case "", DefaultHWModel:
		return newStreamPrefetcher(port)
	case "none":
		return &nonePrefetcher{}
	case "nextline":
		return &nextlinePrefetcher{newHWCore(port)}
	case "ipstride":
		return &ipstridePrefetcher{hwCore: newHWCore(port)}
	case "tracker":
		return &trackerPrefetcher{hwCore: newHWCore(port), deque: make([]trackerEntry, 0, trackerEntries)}
	case "multistride":
		return &multistridePrefetcher{hwCore: newHWCore(port)}
	}
	panic(fmt.Sprintf("memsim: unknown hardware-prefetcher model %q (valid: %v)", name, hwModels))
}

// hwCore is what every model shares: the port, the line and page shifts
// read from it once at construction (the geometry never changes, and the
// trainers run on every L1 miss), and the statistics.
type hwCore struct {
	port      HWPort
	lineShift uint
	pageShift uint
	stats     HWStats
}

func newHWCore(port HWPort) hwCore {
	return hwCore{port: port, lineShift: port.LineShift(), pageShift: port.PageShift()}
}

func (h *hwCore) Stats() HWStats { return h.stats }

// issue fills nextLine unless it lies outside page or is already cached,
// updating stats accordingly. A negative nextLine shifts to an address
// far above any page of the 32-bit address space, so it is suppressed
// too: no fill ever reaches the L2 with an address off the reference's
// page.
func (h *hwCore) issue(nextLine int64, page uint64, now uint64) {
	nextAddr := uint64(nextLine) << h.lineShift
	if nextAddr>>h.pageShift != page {
		h.stats.Suppressed++
		return // hardware prefetchers stop at page boundaries
	}
	if h.port.ProbeL2(nextAddr) {
		h.stats.Suppressed++
		return
	}
	h.stats.Issued++
	h.port.FillL2(nextAddr, now)
}

// ---------------------------------------------------------------------------
// none: no hardware prefetching (the software-only ablation point).

type nonePrefetcher struct{ hwCore }

func (p *nonePrefetcher) Name() string               { return "none" }
func (p *nonePrefetcher) Train(addr, pc, now uint64) { p.stats.Trains++ }
func (p *nonePrefetcher) Reset()                     { p.stats = HWStats{} }

// ---------------------------------------------------------------------------
// nextline: one-block-lookahead — fetch line n+1 on every reference to
// line n (Smith's classic sequential prefetch). No confidence, no
// direction detection; the weakest real unit and the strongest generator
// of useless traffic.

type nextlinePrefetcher struct{ hwCore }

func (p *nextlinePrefetcher) Name() string { return "nextline" }

func (p *nextlinePrefetcher) Train(addr, pc, now uint64) {
	p.stats.Trains++
	p.stats.Hits++ // the prediction is unconditional
	p.issue(int64(addr>>p.lineShift)+1, addr>>p.pageShift, now)
}

func (p *nextlinePrefetcher) Reset() { p.stats = HWStats{} }

// ---------------------------------------------------------------------------
// stream: the simulator's original per-page stream detector — trains on
// two same-delta references within a page, then prefetches one line ahead
// for near-sequential streams. Kept behaviourally identical to the
// pre-refactor hwTrain (the default model's outputs are golden).

// hwStream is the training state of one tracked stream.
type hwStream struct {
	lastLine uint64
	delta    int64
	conf     int8
}

const hwStreams = 16

// noPage marks an empty stream slot. Real pages are addresses shifted
// right by a page shift of at least one bit, so none equals it.
const noPage = ^uint64(0)

// streamPrefetcher keeps each slot's page and last-use tick in packed
// arrays apart from the training state, so the per-train match scan and
// the allocation's victim scan each read one 128-byte array.
type streamPrefetcher struct {
	hwCore
	pages   [hwStreams]uint64 // noPage when the slot is empty
	lastUse [hwStreams]uint64 // useTick of the slot's last train; 0 when empty
	streams [hwStreams]hwStream
	useTick uint64
}

func newStreamPrefetcher(port HWPort) *streamPrefetcher {
	p := &streamPrefetcher{hwCore: newHWCore(port)}
	p.Reset()
	return p
}

func (p *streamPrefetcher) Name() string { return "stream" }

func (p *streamPrefetcher) Train(addr, pc, now uint64) {
	p.stats.Trains++
	page := addr >> p.pageShift
	line := addr >> p.lineShift
	p.useTick++

	i := 0
	for i < hwStreams && p.pages[i] != page {
		i++
	}
	if i == hwStreams {
		// Allocate over the last empty slot, else the least recently
		// trained one: empty slots read 0 and live ones distinct ticks
		// from 1 up, so "<=" picks exactly that.
		v := 0
		for j := 1; j < hwStreams; j++ {
			if p.lastUse[j] <= p.lastUse[v] {
				v = j
			}
		}
		p.pages[v], p.lastUse[v] = page, p.useTick
		p.streams[v] = hwStream{lastLine: line}
		p.stats.Allocs++
		return
	}
	p.lastUse[i] = p.useTick
	s := &p.streams[i]
	d := int64(line) - int64(s.lastLine)
	s.lastLine = line
	if d == 0 {
		return
	}
	if d == s.delta {
		if s.conf < 4 {
			s.conf++
		}
		p.stats.Hits++
	} else {
		s.delta = d
		s.conf = 1
		return
	}
	if s.conf < 2 || s.delta > 2 || s.delta < -2 {
		return // only near-sequential streams, after confirmation
	}
	// Prefetch one line ahead along the stream, within the page.
	p.issue(int64(line)+s.delta, page, now)
}

func (p *streamPrefetcher) Reset() {
	for i := range p.pages {
		p.pages[i] = noPage
	}
	p.lastUse = [hwStreams]uint64{}
	p.streams = [hwStreams]hwStream{}
	p.useTick = 0
	p.stats = HWStats{}
}

// ---------------------------------------------------------------------------
// ipstride: the Baer–Chen reference prediction table — a pc-indexed,
// direct-mapped table of (last address, stride, state) entries with the
// four-state Initial/Transient/Steady/NoPred confidence machine. Prefetch
// is issued only from Steady, so one wrong delta silences a stream until
// the stride re-confirms. (After Baer & Chen 1991; cf. the RPT models in
// SNIPPETS 1 and 3.)

type rptState uint8

const (
	rptInitial rptState = iota
	rptTransient
	rptSteady
	rptNoPred
)

const rptEntries = 64 // direct-mapped; indexed by pc & (rptEntries-1)

type rptEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64 // byte stride: RPTs predict addresses, not lines
	state    rptState
	valid    bool
}

type ipstridePrefetcher struct {
	hwCore
	table [rptEntries]rptEntry
}

func (p *ipstridePrefetcher) Name() string { return "ipstride" }

func (p *ipstridePrefetcher) Train(addr, pc, now uint64) {
	p.stats.Trains++
	if pc == 0 {
		return // reference without a stable load site; nothing to index
	}
	e := &p.table[pc&(rptEntries-1)]
	if !e.valid || e.pc != pc {
		*e = rptEntry{pc: pc, lastAddr: addr, state: rptInitial, valid: true}
		p.stats.Allocs++
		return
	}
	d := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	correct := d == e.stride
	switch e.state {
	case rptInitial:
		if correct {
			e.state = rptSteady
		} else {
			e.stride = d
			e.state = rptTransient
		}
	case rptTransient:
		if correct {
			e.state = rptSteady
		} else {
			e.stride = d
			e.state = rptNoPred
		}
	case rptSteady:
		if !correct {
			e.state = rptInitial
		}
	case rptNoPred:
		if correct {
			e.state = rptTransient
		} else {
			e.stride = d
		}
	}
	if correct {
		p.stats.Hits++
	}
	if e.state == rptSteady && e.stride != 0 {
		// Predict the next byte address; prefetching is still per line, so
		// a sub-line stride that stays on the current line is covered by
		// the demand fetch already in flight.
		predLine := (int64(addr) + e.stride) >> p.lineShift
		if predLine == int64(addr>>p.lineShift) {
			p.stats.Suppressed++
		} else {
			p.issue(predLine, addr>>p.pageShift, now)
		}
	}
}

func (p *ipstridePrefetcher) Reset() {
	p.table = [rptEntries]rptEntry{}
	p.stats = HWStats{}
}

// ---------------------------------------------------------------------------
// tracker: a small LRU deque of per-pc trackers (after Hermes' stride
// prefetcher, SNIPPET 2): each tracker remembers the last byte address and
// last byte stride for one load site; two consecutive equal nonzero strides
// issue degree-2 prefetches along the predicted addresses. Unlike the RPT
// it has no confidence decay — capacity pressure on the deque is what
// forgets cold sites.

const (
	trackerEntries = 16
	trackerDegree  = 2
)

type trackerEntry struct {
	pc         uint64
	lastAddr   uint64
	lastStride int64 // byte stride
}

type trackerPrefetcher struct {
	hwCore
	// deque order: front (index 0) is the eviction candidate, back is the
	// most recently used tracker.
	deque []trackerEntry
}

func (p *trackerPrefetcher) Name() string { return "tracker" }

func (p *trackerPrefetcher) Train(addr, pc, now uint64) {
	p.stats.Trains++
	if pc == 0 {
		return
	}
	hit := -1
	for i := range p.deque {
		if p.deque[i].pc == pc {
			hit = i
			break
		}
	}
	if hit < 0 {
		if len(p.deque) == trackerEntries {
			copy(p.deque, p.deque[1:]) // evict the front (LRU)
			p.deque = p.deque[:trackerEntries-1]
		}
		p.deque = append(p.deque, trackerEntry{pc: pc, lastAddr: addr})
		p.stats.Allocs++
		return
	}
	t := p.deque[hit]
	// Move the matched tracker to the back (MRU).
	copy(p.deque[hit:], p.deque[hit+1:])
	p.deque[len(p.deque)-1] = t
	t2 := &p.deque[len(p.deque)-1]
	stride := int64(addr) - int64(t.lastAddr)
	t2.lastAddr = addr
	if stride != 0 && stride == t.lastStride {
		p.stats.Hits++
		page := addr >> p.pageShift
		line := int64(addr >> p.lineShift)
		// Walk the predicted byte addresses; per-line fetch means a target
		// still on a previously covered line is counted suppressed (the
		// ProbeL2 check in issue dedupes the just-filled ones).
		prev := line
		for i := int64(1); i <= trackerDegree; i++ {
			tl := (int64(addr) + i*stride) >> p.lineShift
			if tl == prev {
				p.stats.Suppressed++
				continue
			}
			p.issue(tl, page, now)
			prev = tl
		}
	}
	t2.lastStride = stride
}

func (p *trackerPrefetcher) Reset() {
	p.deque = p.deque[:0]
	p.stats = HWStats{}
}

// ---------------------------------------------------------------------------
// multistride: compound-pattern detection after Blom et al. 2024
// ("Multi-Strided Access Patterns to Boost Hardware Prefetching"): a
// per-pc ring of recent line deltas is scanned for a periodic pattern of
// period 1..4 (each period seen at least twice); on detection the next
// period's deltas are replayed ahead of the access, covering loops that
// alternate between several constant strides (e.g. row-walks with a
// gap every k elements) that defeat single-stride units.

const (
	msEntries   = 32 // direct-mapped by pc
	msHistory   = 8  // delta ring depth
	msMaxPeriod = 4
)

type msEntry struct {
	pc       uint64
	lastLine uint64
	deltas   [msHistory]int64
	n        int // deltas recorded (saturates at msHistory)
	valid    bool
}

type multistridePrefetcher struct {
	hwCore
	table [msEntries]msEntry
}

func (p *multistridePrefetcher) Name() string { return "multistride" }

func (p *multistridePrefetcher) Train(addr, pc, now uint64) {
	p.stats.Trains++
	if pc == 0 {
		return
	}
	line := addr >> p.lineShift
	e := &p.table[pc&(msEntries-1)]
	if !e.valid || e.pc != pc {
		*e = msEntry{pc: pc, lastLine: line, valid: true}
		p.stats.Allocs++
		return
	}
	d := int64(line) - int64(e.lastLine)
	e.lastLine = line
	// Shift the delta ring (newest at the end).
	copy(e.deltas[:], e.deltas[1:])
	e.deltas[msHistory-1] = d
	if e.n < msHistory {
		e.n++
	}
	period := e.period()
	if period == 0 {
		return
	}
	p.stats.Hits++
	// Replay the next period of deltas ahead of the current line.
	page := addr >> p.pageShift
	next := int64(line)
	for i := 0; i < period; i++ {
		next += e.deltas[msHistory-period+i]
		p.issue(next, page, now)
	}
}

// period returns the shortest period p in 1..msMaxPeriod such that the
// last 2p recorded deltas are p-periodic and not all zero, or 0 when no
// compound pattern is established.
func (e *msEntry) period() int {
	for p := 1; p <= msMaxPeriod; p++ {
		if e.n < 2*p {
			return 0 // longer periods need history we don't have yet
		}
		periodic := true
		nonzero := false
		for i := msHistory - p; i < msHistory; i++ {
			if e.deltas[i] != e.deltas[i-p] {
				periodic = false
				break
			}
			if e.deltas[i] != 0 {
				nonzero = true
			}
		}
		if periodic && nonzero {
			return p
		}
	}
	return 0
}

func (p *multistridePrefetcher) Reset() {
	p.table = [msEntries]msEntry{}
	p.stats = HWStats{}
}
