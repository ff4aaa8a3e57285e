package server

import (
	"sync"
	"sync/atomic"

	"strider/internal/vm"
)

// pooledVM is a parked, already-warm VM for one cell key, together with
// the cell's canonical outcome — the reset-correctness guard every reuse
// is checked against.
type pooledVM struct {
	v *vm.VM
	// stats is the cell's canonical measured-run statistics (successful
	// runs); errText is the canonical runtime-error text (trapping runs).
	// A recycled VM that reproduces neither exactly is poisoned: its reset
	// failed to restore the pre-run state, so it is discarded and the cell
	// re-runs on a fresh VM.
	stats   vm.RunStats
	errText string
}

// vmPool parks at most one steady VM per cell key. A VM enters the pool
// after completing a full measured execution (warmups + measured run);
// because every run after the first is byte-identical on a correctly
// reset VM (the fresh-vs-pooled suite pins this), a recycled VM's next
// run reproduces the cell's canonical stats exactly while skipping the
// program build and all JIT compilation.
//
// The server's scheduler runs one key's executions one at a time (a key
// being executed hands later tasks for it to the same worker), so a
// parked VM is never wanted by two workers at once; the mutex makes the
// pool safe regardless of the scheduling topology above it.
type vmPool struct {
	mu      sync.Mutex
	byKey   map[string]*pooledVM
	maxKeys int

	hits     atomic.Uint64 // get() served a parked VM
	misses   atomic.Uint64 // get() had nothing parked for the key
	returns  atomic.Uint64 // put() parked a VM
	drops    atomic.Uint64 // put() discarded a VM (pool full or disabled)
	poisoned atomic.Uint64 // recycled VM failed the reset-correctness guard
}

func newVMPool(maxKeys int) *vmPool {
	return &vmPool{byKey: make(map[string]*pooledVM), maxKeys: maxKeys}
}

// get removes and returns the parked VM for key, or nil.
func (p *vmPool) get(key string) *pooledVM {
	p.mu.Lock()
	pv := p.byKey[key]
	if pv != nil {
		delete(p.byKey, key)
	}
	p.mu.Unlock()
	if pv == nil {
		p.misses.Add(1)
		return nil
	}
	p.hits.Add(1)
	return pv
}

// put parks a VM for key, unless the pool already holds one for the key
// or is at its key capacity.
func (p *vmPool) put(key string, pv *pooledVM) {
	p.mu.Lock()
	_, dup := p.byKey[key]
	if dup || p.maxKeys <= 0 || (len(p.byKey) >= p.maxKeys) {
		p.mu.Unlock()
		p.drops.Add(1)
		return
	}
	p.byKey[key] = pv
	p.mu.Unlock()
	p.returns.Add(1)
}

// size returns the number of parked VMs.
func (p *vmPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.byKey)
}

// PoolStats is the /stats rendering of the VM pool.
type PoolStats struct {
	Parked   int    `json:"parked"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Returns  uint64 `json:"returns"`
	Drops    uint64 `json:"drops"`
	Poisoned uint64 `json:"poisoned"`
}

func (p *vmPool) stats() PoolStats {
	return PoolStats{
		Parked:   p.size(),
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Returns:  p.returns.Load(),
		Drops:    p.drops.Load(),
		Poisoned: p.poisoned.Load(),
	}
}
