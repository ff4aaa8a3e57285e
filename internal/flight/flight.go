// Package flight is a singleflight cache. Concurrent requests for one key
// share a single computation, a completed value answers every later
// request, and an error is handed to the requests that waited for it but
// is never kept, so the next request computes afresh.
//
// Requests either call Do, which computes the value in the calling
// goroutine, or split the work with Claim and Finish, so that another
// goroutine (a server worker, say) publishes the value the claimer waits
// for.
package flight

import "sync"

// Status says how Claim answered.
type Status uint8

const (
	// Owner: the key had neither a value nor a computation in flight. The
	// caller owns the returned Call and must Finish it.
	Owner Status = iota
	// Joined: a computation of the key is in flight; wait on the Call.
	Joined
	// Hit: the Call holds a completed value; Result returns it at once.
	Hit
)

// Call is one computation of a key's value.
type Call[V any] struct {
	done chan struct{}
	val  V
	err  error
	// ok marks a completed value; guarded by the cache's mutex.
	ok bool
	// seq orders completed values for eviction, oldest first; guarded by
	// the cache's mutex.
	seq uint64
}

// Done is closed once the call has its value or error.
func (c *Call[V]) Done() <-chan struct{} { return c.done }

// Result returns the call's value and error. It is valid once Done is
// closed, or at once for a call Claim returned as a Hit.
func (c *Call[V]) Result() (V, error) { return c.val, c.err }

// Wait blocks until the call is done and returns its Result.
func (c *Call[V]) Wait() (V, error) {
	<-c.done
	return c.val, c.err
}

// Stats counts how a cache answered its claims. Entries counts the keys
// held, computations in flight included.
type Stats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Joins     uint64
	Evictions uint64
}

// Cache maps keys to computations and their completed values. The zero
// value is an empty, unbounded cache. A Cache must not be copied after
// first use.
type Cache[K comparable, V any] struct {
	// Max bounds the keys held: finishing a value that leaves more than
	// Max evicts the oldest completed values. Computations in flight are
	// never evicted, since requests wait on them. 0 means unbounded. Set
	// Max before first use.
	Max int

	mu    sync.Mutex
	m     map[K]*Call[V]
	seq   uint64
	stats Stats
}

// Claim returns key's completed value (Hit), the computation in flight
// for it (Joined), or a new computation the caller owns and must Finish
// (Owner).
func (c *Cache[K, V]) Claim(key K) (*Call[V], Status) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if call, ok := c.m[key]; ok {
		if call.ok {
			c.stats.Hits++
			return call, Hit
		}
		c.stats.Joins++
		return call, Joined
	}
	if c.m == nil {
		c.m = make(map[K]*Call[V])
	}
	call := &Call[V]{done: make(chan struct{})}
	c.m[key] = call
	c.stats.Misses++
	return call, Owner
}

// Finish completes call, which Claim returned to key's owner, and wakes
// its waiters. A value stays cached; an error is dropped from the cache.
func (c *Cache[K, V]) Finish(key K, call *Call[V], v V, err error) {
	c.mu.Lock()
	call.val, call.err = v, err
	if err != nil {
		delete(c.m, key)
	} else {
		c.seq++
		call.ok, call.seq = true, c.seq
		if c.Max > 0 {
			c.evict(call)
		}
	}
	c.mu.Unlock()
	close(call.done)
}

// evict drops the oldest completed values other than keep until the
// cache holds at most Max keys or none but keep is left to drop.
func (c *Cache[K, V]) evict(keep *Call[V]) {
	for len(c.m) > c.Max {
		var (
			oldK K
			old  *Call[V]
		)
		for k, e := range c.m {
			if e.ok && e != keep && (old == nil || e.seq < old.seq) {
				oldK, old = k, e
			}
		}
		if old == nil {
			return
		}
		delete(c.m, oldK)
		c.stats.Evictions++
	}
}

// Do returns key's value, computing it with fn unless it is cached or
// already being computed. fresh reports whether this call ran fn.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (v V, fresh bool, err error) {
	call, st := c.Claim(key)
	if st != Owner {
		v, err = call.Wait()
		return v, false, err
	}
	v, err = fn()
	c.Finish(key, call, v, err)
	return v, true, err
}

// Stats returns the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.m)
	return st
}
