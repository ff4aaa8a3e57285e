package memsim

import (
	"math/rand"
	"reflect"
	"testing"
)

// refStreamPrefetcher is the stream detector as it was before its slot
// pages and use ticks moved into packed arrays: an array of structs, a
// last-matched-slot hint, one fused match-and-victim scan, and line and
// page shifts read through the port on every issue. TestStreamMatchesReference
// holds the packed model to it.
type refStreamPrefetcher struct {
	port       HWPort
	streams    [hwStreams]refStream
	lastStream int
	useTick    uint64
	stats      HWStats
}

type refStream struct {
	page     uint64
	lastLine uint64
	delta    int64
	conf     int8
	lastUse  uint64
	valid    bool
}

func (p *refStreamPrefetcher) Train(addr, pc, now uint64) {
	p.stats.Trains++
	page := addr >> p.port.PageShift()
	line := addr >> p.port.LineShift()
	p.useTick++

	var s *refStream
	if h := &p.streams[p.lastStream]; h.valid && h.page == page {
		s = h
	} else {
		victim := 0
		for i := range p.streams {
			e := &p.streams[i]
			if e.valid && e.page == page {
				s = e
				p.lastStream = i
				break
			}
			if !e.valid {
				victim = i
			} else if p.streams[victim].valid && e.lastUse < p.streams[victim].lastUse {
				victim = i
			}
		}
		if s == nil {
			p.streams[victim] = refStream{page: page, lastLine: line, lastUse: p.useTick, valid: true}
			p.lastStream = victim
			p.stats.Allocs++
			return
		}
	}
	s.lastUse = p.useTick
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
		return
	}
	nextAddr := uint64(int64(line)+s.delta) << p.port.LineShift()
	if nextAddr>>p.port.PageShift() != page {
		p.stats.Suppressed++
		return
	}
	if p.port.ProbeL2(nextAddr) {
		p.stats.Suppressed++
		return
	}
	p.stats.Issued++
	p.port.FillL2(nextAddr, now)
}

// TestStreamMatchesReference drives fuzzed page/line reference streams
// through the stream detector and the reference copy above, each over
// its own fake port, and requires the same fills in the same order and
// the same statistics after every train. The streams revisit more pages
// than the detector has slots (so victim choice is exercised, empty
// slots included after each Reset), walk pages with small and large
// line deltas in both directions (so confidence, page-edge suppression
// and L2-presence suppression all occur), and repeat lines.
func TestStreamMatchesReference(t *testing.T) {
	geoms := []struct{ line, page uint }{{7, 12}, {6, 12}, {7, 10}}
	for _, g := range geoms {
		for _, seed := range []int64{1, 2, 3, 99, 2026} {
			rng := rand.New(rand.NewSource(seed))
			gotPort, refPort := newFakePort(g.line, g.page), newFakePort(g.line, g.page)
			got := newStreamPrefetcher(gotPort)
			ref := &refStreamPrefetcher{port: refPort}
			linesPerPage := uint64(1) << (g.page - g.line)
			// Up to 2*hwStreams live pages, each with a cursor line and a
			// preferred step.
			pages := make([]uint64, 2*hwStreams)
			cursor := make([]uint64, len(pages))
			step := make([]int64, len(pages))
			for i := range pages {
				pages[i] = uint64(rng.Intn(1 << 18))
				cursor[i] = uint64(rng.Int63n(int64(linesPerPage)))
				step[i] = int64(rng.Intn(7) - 3)
			}
			live := hwStreams/2 + rng.Intn(len(pages)-hwStreams/2)
			for op := 0; op < 20_000; op++ {
				i := rng.Intn(live)
				switch r := rng.Intn(100); {
				case r < 70: // keep walking
					cursor[i] = uint64(int64(cursor[i])+step[i]) % linesPerPage
				case r < 80: // change direction or stride
					step[i] = int64(rng.Intn(7) - 3)
				case r < 90: // jump within the page
					cursor[i] = uint64(rng.Int63n(int64(linesPerPage)))
				case r < 95: // move the slot to a fresh page
					pages[i] = uint64(rng.Intn(1 << 18))
				default: // vary how many pages compete for the slots
					live = 1 + rng.Intn(len(pages))
				}
				addr := (pages[i]<<(g.page-g.line)+cursor[i])<<g.line + uint64(rng.Intn(1<<g.line))
				now := uint64(op) * 10
				got.Train(addr, 0, now)
				ref.Train(addr, 0, now)
				if got.Stats() != ref.stats {
					t.Fatalf("geometry %+v seed %d op %d: stats %+v, reference %+v",
						g, seed, op, got.Stats(), ref.stats)
				}
				if op%5000 == 4999 {
					got.Reset()
					*ref = refStreamPrefetcher{port: refPort}
				}
			}
			if !reflect.DeepEqual(gotPort.fills, refPort.fills) {
				t.Fatalf("geometry %+v seed %d: fill sequences differ (%d vs %d fills)",
					g, seed, len(gotPort.fills), len(refPort.fills))
			}
			if len(gotPort.fills) == 0 {
				t.Fatalf("geometry %+v seed %d: no fills; the stream never exercised issue", g, seed)
			}
		}
	}
}
