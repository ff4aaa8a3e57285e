package heap

import (
	"testing"

	"strider/internal/value"
)

// TestGrowthFromSmallStart runs both collectors on a large logical heap
// whose backing starts at initialPhys: allocation across several
// doublings, a collection after growth, reads past the backing, and a
// second run after Reset that must reuse the grown backing and bitmap.
func TestGrowthFromSmallStart(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode GCMode
	}{
		{"compact", GCSlidingCompact},
		{"freelist", GCMarkSweepFreeList},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, node := testUniverse(t)
			fVal, fNext := node.FieldByName("val"), node.FieldByName("next")
			h := New(64<<20, u)
			h.SetGCMode(tc.mode)

			// run builds a live list interleaved with garbage arrays until
			// the backing has doubled three times (64 KB → 512 KB).
			// garbageFirst swaps each pair's order, so a second run puts
			// garbage where the first run's live nodes were marked.
			run := func(garbageFirst bool) {
				var head uint32
				n := 0
				for h.Top() < 6*initialPhys {
					if garbageFirst {
						if _, err := h.AllocArray(value.KindInt, 32); err != nil {
							t.Fatal(err)
						}
					}
					a, err := h.AllocObject(node)
					if err != nil {
						t.Fatal(err)
					}
					h.Store4(a+fVal.Offset, uint32(n))
					h.Store4(a+fNext.Offset, head)
					head = a
					n++
					if !garbageFirst {
						if _, err := h.AllocArray(value.KindInt, 32); err != nil {
							t.Fatal(err)
						}
					}
				}
				if got := len(h.mem); got != 8*initialPhys {
					t.Fatalf("backing %d bytes after growth, want %d", got, 8*initialPhys)
				}

				root := value.Ref(head)
				live := h.Collect(func(visit func(*value.Value)) { visit(&root) })
				if want := uint64(n) * uint64(node.InstanceSize); live != want {
					t.Errorf("live bytes %d, want %d", live, want)
				}
				vals := listVals(h, node, root.Ref())
				if len(vals) != n {
					t.Fatalf("list has %d nodes after GC, want %d", len(vals), n)
				}
				for i, v := range vals {
					if v != uint32(n-1-i) {
						t.Fatalf("node %d holds %d after GC, want %d", i, v, n-1-i)
					}
				}

				// Valid addresses past the backing were never written.
				phys := uint32(len(h.mem))
				for _, addr := range []uint32{phys, phys + 4096, h.Size() - 4} {
					if !h.Valid(addr, 4) {
						t.Fatalf("%#x should be a valid address", addr)
					}
					if got := h.Load4(addr); got != 0 {
						t.Errorf("Load4(%#x) past the backing = %#x, want 0", addr, got)
					}
				}
				if uint32(len(h.mem)) != phys {
					t.Error("a read past the backing grew it")
				}
			}

			run(false)
			mem, marks := &h.mem[0], &h.marks[0]
			h.Reset()
			run(true)
			if &h.mem[0] != mem {
				t.Error("the run after Reset reallocated the backing")
			}
			if &h.marks[0] != marks {
				t.Error("the run after Reset reallocated the mark bitmap")
			}
		})
	}
}

// TestBackingFollowsUse pins the footprint bound: a fresh heap holds at
// most initialPhys of backing and no mark bitmap, whatever its logical
// size, and after N allocated bytes the backing stays below 2N plus the
// start size.
func TestBackingFollowsUse(t *testing.T) {
	u, node := testUniverse(t)
	h := New(64<<20, u)
	if got := len(h.mem); got > initialPhys {
		t.Fatalf("fresh 64 MB heap backs %d bytes, want at most %d", got, initialPhys)
	}
	if h.marks != nil {
		t.Fatal("New allocated the mark bitmap")
	}
	for _, target := range []uint64{1 << 10, 100 << 10, 1 << 20, 3 << 20} {
		for h.Stats().BytesAlloc < target {
			if _, err := h.AllocObject(node); err != nil {
				t.Fatal(err)
			}
			if _, err := h.AllocArray(value.KindInt, 250); err != nil {
				t.Fatal(err)
			}
		}
		n := h.Stats().BytesAlloc
		if got := uint64(len(h.mem)); got >= 2*n+initialPhys {
			t.Errorf("after %d allocated bytes the backing is %d, want below %d", n, got, 2*n+initialPhys)
		}
	}
}
