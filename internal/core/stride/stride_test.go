package stride

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func trace(addrs ...uint32) []Rec {
	out := make([]Rec, len(addrs))
	for i, a := range addrs {
		out[i] = Rec{Iter: i, Addr: a}
	}
	return out
}

func TestDominantPerfect(t *testing.T) {
	d, ok := Dominant([]int64{8, 8, 8, 8}, DefaultThreshold)
	if !ok || d != 8 {
		t.Errorf("perfect stride: (%d, %v)", d, ok)
	}
}

func TestDominantMajority(t *testing.T) {
	// 4 of 5 = 80% >= 75%: accepted.
	if d, ok := Dominant([]int64{8, 8, 8, 8, 100}, DefaultThreshold); !ok || d != 8 {
		t.Errorf("80%% majority rejected: (%d, %v)", d, ok)
	}
	// 3 of 5 = 60% < 75%: rejected.
	if _, ok := Dominant([]int64{8, 8, 8, 9, 100}, DefaultThreshold); ok {
		t.Error("60% majority accepted")
	}
}

func TestDominantZeroRejected(t *testing.T) {
	// Loop-invariant addresses (delta 0) are not exploitable patterns.
	if _, ok := Dominant([]int64{0, 0, 0, 0}, DefaultThreshold); ok {
		t.Error("zero stride must not be a pattern")
	}
}

func TestDominantShortSequence(t *testing.T) {
	if _, ok := Dominant([]int64{8}, DefaultThreshold); ok {
		t.Error("a single delta is not a pattern")
	}
	if _, ok := Dominant(nil, DefaultThreshold); ok {
		t.Error("empty deltas are not a pattern")
	}
}

func TestDominantNegativeStride(t *testing.T) {
	d, ok := Dominant([]int64{-208, -208, -208}, DefaultThreshold)
	if !ok || d != -208 {
		t.Error("negative strides are patterns too (backward scans)")
	}
}

func TestInterPerfect(t *testing.T) {
	tr := trace(1000, 1004, 1008, 1012, 1016)
	d, ok := Inter(tr, DefaultThreshold)
	if !ok || d != 4 {
		t.Errorf("Inter = (%d, %v)", d, ok)
	}
}

func TestInterTooShort(t *testing.T) {
	if _, ok := Inter(trace(1000, 1004), DefaultThreshold); ok {
		t.Error("two samples are not a pattern")
	}
	if _, ok := Inter(nil, DefaultThreshold); ok {
		t.Error("empty trace")
	}
}

func TestInterIrregular(t *testing.T) {
	tr := trace(1000, 5000, 1200, 9000, 1400, 12000)
	if _, ok := Inter(tr, DefaultThreshold); ok {
		t.Error("irregular addresses must not show a pattern")
	}
}

func TestInterRejectsAlternatingStrides(t *testing.T) {
	// Two alternating strides (8, 40, 8, 40, ...) split the deltas evenly,
	// so neither reaches the majority: the paper's algorithm looks for
	// single strides only.
	var addrs []uint32
	for i, a := 0, uint32(0x1000); i < 16; i++ {
		addrs = append(addrs, a)
		if i%2 == 0 {
			a += 8
		} else {
			a += 40
		}
	}
	if _, ok := Inter(trace(addrs...), DefaultThreshold); ok {
		t.Error("single-stride detector accepted an 8/40 alternation")
	}
}

func TestInterMultipleExecutionsPerIteration(t *testing.T) {
	// A load in a promoted nested loop executes several times per outer
	// iteration; the dominant delta is the inner advance.
	tr := []Rec{
		{0, 100}, {0, 104}, {0, 108}, {0, 112},
		{1, 200}, {1, 204}, {1, 208}, {1, 212},
		{2, 300}, {2, 304}, {2, 308}, {2, 312},
	}
	d, ok := Inter(tr, DefaultThreshold)
	if !ok || d != 4 {
		t.Errorf("nested-loop trace: (%d, %v)", d, ok)
	}
}

func TestIntraConstantOffset(t *testing.T) {
	// A(Lz) - A(Ly) constant across iterations, although neither load has
	// an inter-iteration stride — the paper's Sec. 2 scenario.
	from := []Rec{{0, 0x1000}, {1, 0x8000}, {2, 0x3000}, {3, 0x9000}}
	to := []Rec{{0, 0x1018}, {1, 0x8018}, {2, 0x3018}, {3, 0x9018}}
	s, ok := Intra(from, to, DefaultThreshold)
	if !ok || s != 0x18 {
		t.Errorf("Intra = (%d, %v)", s, ok)
	}
}

func TestIntraUsesFirstExecutionPerIteration(t *testing.T) {
	from := []Rec{{0, 0x1000}, {0, 0x1100}, {1, 0x2000}, {1, 0x2300}}
	to := []Rec{{0, 0x1020}, {0, 0x1500}, {1, 0x2020}}
	s, ok := Intra(from, to, DefaultThreshold)
	if !ok || s != 0x20 {
		t.Errorf("first-execution sampling broken: (%d, %v)", s, ok)
	}
}

func TestIntraZeroStrideRejected(t *testing.T) {
	// A pair of loads hitting the same address every iteration has a
	// dominant stride of exactly 0: prefetching it would duplicate the
	// cache line already fetched by `from`, which the paper's Sec. 3.3
	// profitability filter forbids. Intra must reject it like Dominant.
	from := []Rec{{0, 0x1000}, {1, 0x2000}, {2, 0x3000}, {3, 0x4000}}
	to := []Rec{{0, 0x1000}, {1, 0x2000}, {2, 0x3000}, {3, 0x4000}}
	if s, ok := Intra(from, to, DefaultThreshold); ok {
		t.Errorf("same-address pair accepted with stride %d; zero intra strides must be rejected", s)
	}
	// A dominant-but-not-unanimous zero must be rejected too.
	to[3].Addr = 0x4018
	if s, ok := Intra(from, to, DefaultThreshold); ok {
		t.Errorf("75%%-dominant zero stride accepted with stride %d", s)
	}
}

func TestIntraMismatchedIterations(t *testing.T) {
	from := []Rec{{0, 0x1000}, {2, 0x3000}}
	to := []Rec{{1, 0x2000}, {3, 0x4000}}
	if _, ok := Intra(from, to, DefaultThreshold); ok {
		t.Error("no common iterations: no pattern")
	}
}

func TestIntraIrregular(t *testing.T) {
	from := []Rec{{0, 0x1000}, {1, 0x2000}, {2, 0x3000}}
	to := []Rec{{0, 0x1010}, {1, 0x2080}, {2, 0x3500}}
	if _, ok := Intra(from, to, DefaultThreshold); ok {
		t.Error("varying pair strides must not be a pattern")
	}
}

func TestThresholdKnob(t *testing.T) {
	deltas := []int64{8, 8, 8, 5, 9} // 60% dominant
	if _, ok := Dominant(deltas, 0.75); ok {
		t.Error("60% fails at 0.75")
	}
	if d, ok := Dominant(deltas, 0.5); !ok || d != 8 {
		t.Error("60% passes at 0.5")
	}
}

// Property: a perfect arithmetic progression of any non-zero stride is
// always detected with exactly that stride.
func TestQuickPerfectStrideAlwaysFound(t *testing.T) {
	f := func(start uint32, stride int16, n uint8) bool {
		if stride == 0 {
			return true
		}
		ln := 3 + int(n%30)
		tr := make([]Rec, ln)
		a := int64(start)
		for i := range tr {
			tr[i] = Rec{Iter: i, Addr: uint32(a)}
			a += int64(stride)
		}
		d, ok := Inter(tr, DefaultThreshold)
		return ok && d == int64(stride)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: uniformly random addresses (almost) never show a pattern.
func TestQuickRandomNoPattern(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := make([]Rec, 20)
		for i := range tr {
			tr[i] = Rec{Iter: i, Addr: rng.Uint32() % (1 << 28)}
		}
		_, ok := Inter(tr, DefaultThreshold)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
